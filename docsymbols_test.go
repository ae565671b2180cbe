package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docSymbol matches a backticked `pkg.Name` or `pkg.Type.Member`. Names are
// Go identifiers without underscores, so ledger metrics such as
// `gpu.ns_per_tick` never match.
var docSymbol = regexp.MustCompile("`([a-z][a-z0-9]*)((?:\\.[A-Za-z][A-Za-z0-9]*){1,2})`")

// TestDocSymbolsResolve holds DESIGN.md, README.md, EXPERIMENTS.md and the
// verify skill to the code: every backticked `pkg.Name` or `pkg.Type.Member`
// whose pkg is a package of this module must name a top-level declaration, a
// method or a struct field of that package (so `noc.CheckInvariants`, a
// method, resolves). A name whose
// pkg is not a module package, such as `errors.Join`, is skipped, and so is
// one the code spells as a string literal: a span or metric name such as
// `serve.admission`.
func TestDocSymbolsResolve(t *testing.T) {
	decls, literals := moduleDecls(t)
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docSymbol.FindAllStringSubmatch(string(text), -1) {
			names, ok := decls[m[1]]
			if !ok || literals[m[1]+m[2]] {
				continue
			}
			checked++
			for _, name := range strings.Split(m[2][1:], ".") {
				if !names[name] {
					t.Errorf("%s names `%s%s`, but package %s declares no %s", doc, m[1], m[2], m[1], name)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no module symbol found in the docs")
	}
}

// moduleDecls parses every non-test Go file of the module's packages (under
// internal/, cmd/ and examples/; benchmark/ is a module of its own) and
// returns, per package name, the names it declares: top-level functions,
// types, variables and constants, methods, and struct fields. Test files
// count, an external test package under its package's name. It also
// returns every string literal of those files.
func moduleDecls(t *testing.T) (decls map[string]map[string]bool, literals map[string]bool) {
	t.Helper()
	decls, literals = map[string]map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := strings.TrimSuffix(f.Name.Name, "_test")
			names := decls[pkg]
			if names == nil {
				names = map[string]bool{}
				decls[pkg] = names
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					names[d.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
							addFields(names, spec.Type)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								names[id.Name] = true
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						literals[v] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return decls, literals
}

// addFields adds the struct fields and interface methods declared in typ,
// nested struct types included, but not the parameters of function types.
func addFields(names map[string]bool, typ ast.Expr) {
	ast.Inspect(typ, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			return false
		case *ast.Field:
			for _, id := range n.Names {
				names[id.Name] = true
			}
		}
		return true
	})
}
