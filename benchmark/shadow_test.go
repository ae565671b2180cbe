package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/timing"
	"repro/internal/trace"
)

// TestShadowStepMatchesSimulatorStep locks the benchmark's copy of the
// stepping loop to the simulator's: every kernel of the three sim
// workloads under both schemes, shadow against a twin driven by
// Simulator.Step, equal on instructions, both NetStats and the MCs'
// RepliesSent / StallTime.
func TestShadowStepMatchesSimulatorStep(t *testing.T) {
	const warmup, measure = 300, 900
	for _, w := range workloads[:3] {
		for _, name := range w.Kernels {
			k, err := trace.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range adaPair {
				cfg := core.DefaultConfig()
				cfg.Scheme, cfg.WarmupCycles, cfg.MeasureCycles = sc, warmup, measure
				shadow, err := core.NewSimulator(cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := core.NewSimulator(cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				coreClk := timing.NewClock(cfg.CoreClockNum, cfg.CoreClockDen)
				memClk := timing.NewClock(cfg.MemClockNum, cfg.MemClockDen)
				shadowStep(shadow, coreClk, memClk, 0, warmup, nil)
				resetShadowStats(shadow)
				shadowStep(shadow, coreClk, memClk, warmup, measure, nil)
				for c := 0; c < warmup; c++ {
					twin.Step()
				}
				resetShadowStats(twin)
				for c := 0; c < measure; c++ {
					twin.Step()
				}
				if got, want := totalsOf(shadow), totalsOf(twin); got != want {
					t.Errorf("%s/%s: shadow %+v\n twin %+v", name, sc, got, want)
				}
				shadow.Close()
				twin.Close()
			}
		}
	}
}

// TestPaperFormulasMatchFigures keeps the benchmark's definitions of the
// four paper rows equal to the figure generators' summaries.
func TestPaperFormulasMatchFigures(t *testing.T) {
	r := exp.NewRunner()
	r.Base.WarmupCycles, r.Base.MeasureCycles = 300, 900
	r.Benchmarks = nil
	for _, name := range []string{"bfs", "histogram", "nn"} {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r.Benchmarks = append(r.Benchmarks, k)
	}
	summary := func(id, key string) float64 {
		f, err := exp.Generate(r, id)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := f.Summary[key]
		if !ok {
			t.Fatalf("figure %s has no summary %q", id, key)
		}
		return v
	}
	want := paperRows{
		Fig11Gain:           summary("11", "ada_ari_gain"),
		Fig12StallReduction: summary("12", "ada_ari_stall_reduction"),
		Fig5ReplyShare:      summary("5", "avg_reply_traffic_share"),
		Fig3ReqOverRep:      summary("3", "avg_req_over_rep"),
	}
	var m []map[core.Scheme]core.Result
	for _, k := range r.Benchmarks {
		row := map[core.Scheme]core.Result{}
		for _, sc := range []core.Scheme{core.XYBaseline, core.AdaBaseline, core.AdaARI} {
			cfg := r.Base
			cfg.Scheme = sc
			res, ok := r.Lookup(cfg, k.Name)
			if !ok {
				t.Fatalf("%s/%s was not run by the figures", k.Name, sc)
			}
			row[sc] = res
		}
		m = append(m, row)
	}
	got := paperFigures(m, core.XYBaseline)
	near := func(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }
	if !near(got.Fig11Gain, want.Fig11Gain) || !near(got.Fig12StallReduction, want.Fig12StallReduction) ||
		!near(got.Fig5ReplyShare, want.Fig5ReplyShare) || !near(got.Fig3ReqOverRep, want.Fig3ReqOverRep) {
		t.Errorf("benchmark %+v\n figures %+v", got, want)
	}
}
