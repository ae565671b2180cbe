package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exp"
)

// docSymbol matches a backticked `q.Name` or `q.Name.Member`. Names are Go
// identifiers without underscores, so ledger metrics such as
// `gpu.ns_per_tick` never match.
var docSymbol = regexp.MustCompile("`([a-z][a-z0-9]*)((?:\\.[A-Za-z][A-Za-z0-9]*){1,2})`")

// docFigure matches a `-fig <id>` in the docs; alternatives may be joined by
// "|" (`-fig decompose|analytic`).
var docFigure = regexp.MustCompile(`-fig\s+([A-Za-z0-9|]+)`)

// TestDocSymbolsResolve holds DESIGN.md, README.md, EXPERIMENTS.md and the
// verify skill to the code: every backticked `q.Name` or `q.Name.Member`
// must resolve (docIndex.resolves says how), and every `-fig <id>` must name
// an exp.Registry() figure or "all", so a doc that still names a deleted
// package's or type's symbol, or runs a deleted figure, fails.
func TestDocSymbolsResolve(t *testing.T) {
	ix := newDocIndex(t)
	figures := map[string]bool{"all": true}
	for _, e := range exp.Registry() {
		figures[e.ID] = true
	}
	checked, figChecked := 0, 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docSymbol.FindAllStringSubmatch(string(text), -1) {
			checked++
			if !ix.resolves(m[1] + m[2]) {
				t.Errorf("%s names `%s%s`, which resolves to no package, type, string or file of the repo", doc, m[1], m[2])
			}
		}
		for _, m := range docFigure.FindAllStringSubmatch(string(text), -1) {
			for _, id := range strings.Split(m[1], "|") {
				figChecked++
				if !figures[id] {
					t.Errorf("%s runs `-fig %s`, which is no registry figure", doc, id)
				}
			}
		}
	}
	if checked == 0 || figChecked == 0 {
		t.Fatalf("%d symbols and %d figures found in the docs", checked, figChecked)
	}
}

// TestDocSymbolClassifier pins what resolves: a qualifier that is no module
// package must be a standard-library package, a module type with the name
// as its field or method, part of a string literal of the code, or a file of
// the repo; `fault.SoakConfig`, named by the docs after its package was
// folded into noc, is none of them.
func TestDocSymbolClassifier(t *testing.T) {
	ix := newDocIndex(t)
	for _, tc := range []struct {
		sym  string
		want bool
	}{
		{"noc.CheckInvariants", true}, // module package, method
		{"noc.Config.Validate", true}, // module type, method
		{"noc.NoSuchName", false},
		{"fault.SoakConfig", false}, // a deleted package
		{"errors.Join", true},       // standard library
		{"router.cycle", true},      // type with its method
		{"warp.heldWrite", true},    // type with its field
		{"router.noSuchMember", false},
		{"gateway.route", true}, // span name, a string literal
		{"fabric.go", true},     // files
		{"run.sh", true},
		{"golden.json", true},
		{"nosuch.go", false},
	} {
		if got := ix.resolves(tc.sym); got != tc.want {
			t.Errorf("resolves(%q) = %v, want %v", tc.sym, got, tc.want)
		}
	}
}

// designMaxBytes bounds DESIGN.md. A change may lower it, never raise it.
const designMaxBytes = 80880

// changesEntryMaxBytes bounds the newest CHANGES.md entry (1.5 KB).
const changesEntryMaxBytes = 1536

// changesEntry matches the first line of a CHANGES.md entry.
var changesEntry = regexp.MustCompile(`(?m)^PR [0-9]+`)

// docBudgetErrors returns what breaks a budget: the newest CHANGES.md
// entry, from its last line that starts "PR <n>" to the end, over
// changesEntryMaxBytes, and DESIGN.md over designMaxBytes.
func docBudgetErrors(changes, design []byte) []string {
	var errs []string
	starts := changesEntry.FindAllIndex(changes, -1)
	if len(starts) == 0 {
		errs = append(errs, "CHANGES.md has no line that starts an entry (\"PR <n>\")")
	} else if n := len(changes) - starts[len(starts)-1][0]; n > changesEntryMaxBytes {
		errs = append(errs, fmt.Sprintf("the newest CHANGES.md entry is %d B, over its %d B budget", n, changesEntryMaxBytes))
	}
	if len(design) > designMaxBytes {
		errs = append(errs, fmt.Sprintf("DESIGN.md is %d B, over its %d B bound", len(design), designMaxBytes))
	}
	return errs
}

// TestDocBudgets holds CHANGES.md's newest entry and DESIGN.md to their
// budgets, and checks that an entry of 1.6 KB or a DESIGN.md a byte over
// the bound is refused.
func TestDocBudgets(t *testing.T) {
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range docBudgetErrors(changes, design) {
		t.Error(e)
	}
	long := append([]byte("\nPR 0 (a test entry): "), bytes.Repeat([]byte("x"), 1600)...)
	if errs := docBudgetErrors(append(slices.Clip(changes), long...), design); len(errs) != 1 {
		t.Errorf("a 1.6 KB entry: %q, want one error", errs)
	}
	if errs := docBudgetErrors(changes, make([]byte, designMaxBytes+1)); len(errs) != 1 {
		t.Errorf("DESIGN.md a byte over its bound: %q, want one error", errs)
	}
}

// docIndex is what a backticked symbol in the docs may resolve to.
type docIndex struct {
	pkgs     map[string]map[string]bool // module package -> its declared names
	types    map[string]map[string]bool // module type -> its fields and methods
	literals map[string]bool            // the string literals of the code
	files    map[string]bool            // base names of the repo's files
	std      map[string]bool            // standard-library package names
}

// resolves reports whether sym = q.Name or q.Name.Member names something:
// a string literal or a file name spelled in full, else every name after q
// declared in module package q, or a field or method of module type q, else
// q a standard-library package.
func (ix *docIndex) resolves(sym string) bool {
	if ix.literals[sym] || ix.files[sym] {
		return true
	}
	q, rest, _ := strings.Cut(sym, ".")
	names := strings.Split(rest, ".")
	declares := func(decls map[string]bool) bool {
		if decls == nil {
			return false
		}
		for _, name := range names {
			if !decls[name] {
				return false
			}
		}
		return true
	}
	if decls, ok := ix.pkgs[q]; ok {
		return declares(decls)
	}
	return declares(ix.types[q]) || ix.std[q]
}

// newDocIndex parses every Go file of the module's packages (under
// internal/, cmd/ and examples/; benchmark/ is a module of its own), test
// files included, an external test package under its package's name. It
// records per package its top-level functions, types, variables and
// constants, methods and struct fields; per type its fields and methods;
// and every string literal. It also lists the repo's file names and the
// standard library's package names from GOROOT.
func newDocIndex(t *testing.T) *docIndex {
	t.Helper()
	ix := &docIndex{pkgs: map[string]map[string]bool{}, types: map[string]map[string]bool{},
		literals: map[string]bool{}, files: map[string]bool{}, std: map[string]bool{}}
	members := func(typ string) map[string]bool {
		if ix.types[typ] == nil {
			ix.types[typ] = map[string]bool{}
		}
		return ix.types[typ]
	}
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
			names := ix.pkgs[pkg]
			if names == nil {
				names = map[string]bool{}
				ix.pkgs[pkg] = names
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					names[d.Name.Name] = true
					if d.Recv != nil {
						members(receiverType(d.Recv.List[0].Type))[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
							addFields(names, spec.Type)
							addFields(members(spec.Name.Name), spec.Type)
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
						ix.literals[v] = true
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
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build"):
			return filepath.SkipDir
		case !d.IsDir():
			ix.files[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(build.Default.GOROOT, "src")
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		switch d.Name() {
		case "cmd", "internal", "testdata", "vendor":
			return filepath.SkipDir
		}
		if path != src {
			ix.std[d.Name()] = true
		}
		return nil
	})
	if err != nil || !ix.std["errors"] {
		t.Fatalf("standard library packages not found under %s: %v", src, err)
	}
	return ix
}

// receiverType returns the type name of a method receiver, T of T or *T.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
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
