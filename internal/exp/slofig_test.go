package exp

import (
	"testing"

	"repro/internal/core"
)

// TestSLOFigureDeterministic pins the CI contract for `ariexp -fig slo`: two
// invocations over the same seeded config produce byte-identical tables and
// identical summaries, and the figure's semantics hold — a derived threshold
// puts the first scheme's compliance at ~p95, compliance stays in [0,1], and
// every default scheme is present.
func TestSLOFigureDeterministic(t *testing.T) {
	r := NewRunner()
	r.Base.WarmupCycles = 300
	r.Base.MeasureCycles = 1200

	f1, err := SLOFigure(r, "bfs", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := SLOFigure(r, "bfs", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f1.Table.CSV(), f2.Table.CSV(); got != want {
		t.Fatalf("slo figure not deterministic:\nfirst:\n%s\nsecond:\n%s", want, got)
	}
	if len(f1.Summary) != len(f2.Summary) {
		t.Fatalf("summaries diverge: %v vs %v", f1.Summary, f2.Summary)
	}
	for k, v := range f1.Summary {
		if f2.Summary[k] != v {
			t.Fatalf("summary %q diverges: %v vs %v", k, v, f2.Summary[k])
		}
	}

	if f1.Summary["threshold_cycles"] <= 0 {
		t.Fatalf("derived threshold not positive: %v", f1.Summary)
	}
	for _, sch := range []core.Scheme{core.XYBaseline, core.AdaARI} {
		c, ok := f1.Summary["compliance_"+sch.String()]
		if !ok {
			t.Fatalf("summary missing compliance for %s: %v", sch, f1.Summary)
		}
		if c < 0 || c > 1 {
			t.Fatalf("compliance_%s = %v out of [0,1]", sch, c)
		}
	}
	// The threshold is the baseline's own (rounded-up) p95, so the baseline
	// must meet it at least 95% of the time.
	if c := f1.Summary["compliance_"+core.XYBaseline.String()]; c < 0.95 {
		t.Fatalf("baseline compliance %v below its own p95 budget", c)
	}

	// An explicit budget is honoured verbatim.
	f3, err := SLOFigure(r, "bfs", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Summary["threshold_cycles"] != 64 {
		t.Fatalf("explicit threshold not honoured: %v", f3.Summary)
	}
}
