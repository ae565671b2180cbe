// Package repro's root benchmarks regenerate each of the paper's tables
// and figures at reduced scale (short horizons, benchmark subset), one
// testing.B target per table/figure. Use cmd/ariexp for the full-scale
// regeneration; these benches are the quick, repeatable form and report
// the headline metric of each figure via b.ReportMetric.
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/trace"
)

// benchRunner returns a reduced-scale harness: 3 benchmarks per class,
// short horizons. Fresh per benchmark so b.N iterations are comparable.
func benchRunner(b *testing.B) *exp.Runner {
	b.Helper()
	r := exp.NewRunner()
	r.Base.WarmupCycles = 400
	r.Base.MeasureCycles = 1200
	var subset []trace.Kernel
	for _, name := range []string{"bfs", "kmeans", "pathfinder", "b+tree", "histogram", "scan", "blackScholes", "nn", "lavaMD"} {
		k, err := trace.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		subset = append(subset, k)
	}
	r.Benchmarks = subset
	return r
}

// benchFigure runs one figure generator per iteration and reports the
// named summary metric.
func benchFigure(b *testing.B, id, metric string) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		f, err := exp.Generate(r, id)
		if err != nil {
			b.Fatal(err)
		}
		if metric != "" {
			if v, ok := f.Summary[metric]; ok {
				b.ReportMetric(v, metric)
			}
		}
	}
}

func BenchmarkTableI(b *testing.B)      { benchFigure(b, "table1", "") }
func BenchmarkFig03(b *testing.B)       { benchFigure(b, "3", "avg_req_over_rep") }
func BenchmarkFig04(b *testing.B)       { benchFigure(b, "4", "rep_double_gain") }
func BenchmarkFig05(b *testing.B)       { benchFigure(b, "5", "avg_reply_traffic_share") }
func BenchmarkLinkUtil(b *testing.B)    { benchFigure(b, "util", "inj_over_link") }
func BenchmarkFig06(b *testing.B)       { benchFigure(b, "6", "avg_occupancy_over_capacity") }
func BenchmarkFig09(b *testing.B)       { benchFigure(b, "9", "gain_2_levels_bfs") }
func BenchmarkFig10(b *testing.B)       { benchFigure(b, "10", "ari_gain") }
func BenchmarkFig11(b *testing.B)       { benchFigure(b, "11", "ada_ari_gain") }
func BenchmarkFig12(b *testing.B)       { benchFigure(b, "12", "ada_ari_stall_reduction") }
func BenchmarkFig13(b *testing.B)       { benchFigure(b, "13", "ada_ari_total_latency_norm") }
func BenchmarkFig14(b *testing.B)       { benchFigure(b, "14", "avg_energy_saving") }
func BenchmarkFig15(b *testing.B)       { benchFigure(b, "15", "ari_vc_scaling") }
func BenchmarkFig16(b *testing.B)       { benchFigure(b, "16", "da2mesh_ari_gain") }
func BenchmarkScalability(b *testing.B) { benchFigure(b, "scale", "gain_6x6") }
func BenchmarkAreaModel(b *testing.B)   { benchFigure(b, "area", "pair_overhead") }

// BenchmarkSimulatorStep measures the raw simulator stepping rate of the
// Table I system (cycles/second of wall time drives every figure above).
func BenchmarkSimulatorStep(b *testing.B) {
	k, err := trace.ByName("bfs")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Scheme = core.AdaARI
	sim, err := core.NewSimulator(cfg, k)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sim.Close)
	// Step through the configured warmup first: the cold-start cycles cost
	// differently from the saturated steady state, so without this ns/op
	// depends on b.N — and with it on -benchtime.
	for i := int64(0); i < cfg.WarmupCycles; i++ {
		sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}
