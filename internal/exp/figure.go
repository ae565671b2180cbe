package exp

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Figure is one regenerated table/figure: a printable table plus headline
// values used by EXPERIMENTS.md and the regression tests.
type Figure struct {
	ID    string
	Title string
	// Paper states what the paper reports for the headline metric.
	Paper string
	Table *stats.Table
	// Summary holds the headline numbers (e.g. "avg_ipc_gain" -> 0.154).
	Summary map[string]float64
	Notes   []string
}

// String renders the figure as a Markdown section: a heading, the paper's
// claim as a quote, the table, the headline values as bullets and the notes
// in italics.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", f.ID, f.Title)
	if f.Paper != "" {
		fmt.Fprintf(&b, "> paper: %s\n\n", f.Paper)
	}
	if f.Table != nil {
		b.WriteString(f.Table.String() + "\n")
	}
	if len(f.Summary) > 0 {
		for _, k := range stats.SortedKeys(f.Summary) {
			fmt.Fprintf(&b, "- **%s** = %.4f\n", k, f.Summary[k])
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "*%s*\n\n", n)
	}
	return b.String()
}

// GenFunc generates one figure.
type GenFunc func(r *Runner) (*Figure, error)

// Registry maps figure ids to their generators, in paper order. The traced
// figures (decompose, slo) run on the suite's first benchmark.
func Registry() []struct {
	ID  string
	Gen GenFunc
} {
	return []struct {
		ID  string
		Gen GenFunc
	}{
		{"table1", TableI},
		{"3", Fig3},
		{"decompose", func(r *Runner) (*Figure, error) { return Decompose(r, r.Benchmarks[0].Name, tracedSample) }},
		{"4", Fig4},
		{"5", Fig5},
		{"util", LinkUtil},
		{"6", Fig6},
		{"enhanced", EnhancedBaseline},
		{"sizing", SpeedupSizing},
		{"9", Fig9},
		{"10", Fig10},
		{"11", Fig11},
		{"12", Fig12},
		{"13", Fig13},
		{"14", Fig14},
		{"15", Fig15},
		{"16", Fig16},
		{"scale", Scalability},
		{"area", AreaOverhead},
		{"placement", PlacementAblation},
		{"stability", SeedStability},
		{"fault", FaultFigure},
		{"loadlat", LoadLatency},
		{"slo", func(r *Runner) (*Figure, error) { return SLOFigure(r, r.Benchmarks[0].Name, tracedSample, 0) }},
		{"analytic", AnalyticComparison},
	}
}

// Generate produces the figure with the given id.
func Generate(r *Runner, id string) (*Figure, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Gen(r)
		}
	}
	return nil, fmt.Errorf("exp: unknown figure %q", id)
}

// pct formats a ratio change as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }

// safeDiv returns a/b or 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
