package exp

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tinyRunner returns a Runner over a 3-benchmark subset with very short
// horizons, fast enough for unit tests.
func tinyRunner(t *testing.T) *Runner {
	t.Helper()
	r := NewRunner()
	r.Base.WarmupCycles = 200
	r.Base.MeasureCycles = 600
	var subset []trace.Kernel
	for _, name := range []string{"bfs", "b+tree", "lavaMD"} {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, k)
	}
	r.Benchmarks = subset
	return r
}

func TestRunnerCachesResults(t *testing.T) {
	r := tinyRunner(t)
	cfg := r.withScheme(core.XYBaseline)
	if _, err := r.Run(cfg, r.Benchmarks[0]); err != nil {
		t.Fatal(err)
	}
	n := r.Runs()
	if n != 1 {
		t.Fatalf("runs = %d, want 1", n)
	}
	if _, err := r.Run(cfg, r.Benchmarks[0]); err != nil {
		t.Fatal(err)
	}
	if r.Runs() != 1 {
		t.Fatal("identical job re-simulated instead of cached")
	}
	cfg.Seed = 2
	if _, err := r.Run(cfg, r.Benchmarks[0]); err != nil {
		t.Fatal(err)
	}
	if r.Runs() != 2 {
		t.Fatal("different config did not trigger a new run")
	}
}

func TestRunAllPreservesJobOrder(t *testing.T) {
	r := tinyRunner(t)
	jobs := []Job{
		{Cfg: r.withScheme(core.XYBaseline), Kernel: r.Benchmarks[1]},
		{Cfg: r.withScheme(core.XYBaseline), Kernel: r.Benchmarks[0]},
		{Cfg: r.withScheme(core.AdaARI), Kernel: r.Benchmarks[0]},
	}
	res, err := r.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Benchmark != r.Benchmarks[1].Name || res[1].Benchmark != r.Benchmarks[0].Name {
		t.Fatalf("results out of order: %s, %s", res[0].Benchmark, res[1].Benchmark)
	}
	if res[2].Scheme != core.AdaARI {
		t.Fatalf("scheme mismatch: %v", res[2].Scheme)
	}
}

// checkMarkdown asserts that out is one Markdown figure section: a "## id"
// heading and, when the figure has a table, a header row, a |---| separator
// and rows of the header's cell count (a '|' inside a cell is escaped).
func checkMarkdown(t *testing.T, f *Figure, out string) {
	t.Helper()
	if !strings.HasPrefix(out, "## "+f.ID+" — ") {
		t.Fatalf("figure %s: no '## %s — ' heading:\n%s", f.ID, f.ID, out)
	}
	if f.Table == nil {
		return
	}
	cells := func(line string) int {
		return len(strings.Split(strings.ReplaceAll(line, `\|`, ""), "|")) - 2
	}
	sep := regexp.MustCompile(`^(\|-+)+\|$`)
	var table []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") {
			table = append(table, line)
		}
	}
	if len(table) < 2 || !sep.MatchString(table[1]) || cells(table[1]) != cells(table[0]) {
		t.Fatalf("figure %s: table has no header and |---| separator:\n%s", f.ID, out)
	}
	for _, row := range table[2:] {
		if !strings.HasSuffix(row, "|") || cells(row) != cells(table[0]) {
			t.Fatalf("figure %s: row %q does not have the header's %d cells", f.ID, row, cells(table[0]))
		}
	}
}

// TestFiguresGenerate renders every registered figure on the tiny runner:
// each must generate without error and render as a Markdown section, and
// the concatenated report must equal testdata/figures_tiny.md byte for
// byte — the lock on every figure's numbers (rerun with -update only for a
// change that moves the model on purpose). Shared runs must be reused via
// the cache (the scheme matrix figures reuse each other's runs).
func TestFiguresGenerate(t *testing.T) {
	r := tinyRunner(t)
	var report strings.Builder
	for _, e := range Registry() {
		f, err := e.Gen(r)
		if err != nil {
			t.Fatalf("figure %s: %v", e.ID, err)
		}
		out := f.String()
		checkMarkdown(t, f, out)
		if f.Table == nil && len(f.Summary) == 0 {
			t.Fatalf("figure %s has neither table nor summary", e.ID)
		}
		report.WriteString(out)
	}
	golden := filepath.Join("testdata", "figures_tiny.md")
	if *update {
		if err := os.WriteFile(golden, []byte(report.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := report.String(); got != string(want) {
		t.Fatalf("figures diverged from %s (diff it against the report below):\n%s", golden, got)
	}
	// A '|' inside a cell is escaped, not read as a column break.
	piped := &Figure{ID: "pipe", Title: "escaping", Table: stats.NewTable("a|b", "c")}
	piped.Table.AddRow("x|y", "|")
	out := piped.String()
	checkMarkdown(t, piped, out)
	if !strings.Contains(out, `| x\|y | \| |`) {
		t.Fatalf("'|' in a cell not escaped:\n%s", out)
	}
	// Figs 3/5/util share XYBaseline runs; 11/12/13 share the scheme
	// matrix: the total distinct-run count must be well below the naive
	// job count (cache effectiveness).
	if r.Runs() > 260 {
		t.Fatalf("cache ineffective: %d distinct runs", r.Runs())
	}
}

func TestGenerateUnknownFigure(t *testing.T) {
	if _, err := Generate(tinyRunner(t), "nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFig11Summary(t *testing.T) {
	r := tinyRunner(t)
	f, err := Fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"xy_ari_gain", "ada_ari_gain", "multiport_gain"} {
		if _, ok := f.Summary[key]; !ok {
			t.Fatalf("Fig 11 summary missing %q", key)
		}
	}
	// Even at tiny horizons ARI must not lose to baseline on this subset.
	if f.Summary["ada_ari_gain"] < 0 {
		t.Fatalf("ada_ari_gain negative: %v", f.Summary["ada_ari_gain"])
	}
}

func TestAreaFigureNoSimulation(t *testing.T) {
	r := tinyRunner(t)
	if _, err := AreaOverhead(r); err != nil {
		t.Fatal(err)
	}
	if r.Runs() != 0 {
		t.Fatal("area figure ran simulations")
	}
}
