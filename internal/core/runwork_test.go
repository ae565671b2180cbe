package core

import (
	"testing"

	"repro/internal/trace"
)

// TestRunWorkFixedWorkMode: ARI must complete the same amount of work in
// fewer cycles than the baseline — the execution-time basis the paper's
// energy comparison rests on.
func TestRunWorkFixedWorkMode(t *testing.T) {
	k, _ := trace.ByName("bfs")
	const work = 60000
	runW := func(s Scheme) Result {
		cfg := fastConfig(s)
		sim, err := NewSimulator(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		return mustRunWork(t, sim, work, 200000)
	}
	base := runW(AdaBaseline)
	ari := runW(AdaARI)
	if base.Instructions < work || ari.Instructions < work {
		t.Fatalf("work target missed: %d / %d", base.Instructions, ari.Instructions)
	}
	if ari.MeasuredCycles >= base.MeasuredCycles {
		t.Fatalf("ARI took %d cycles for the same work, baseline %d",
			ari.MeasuredCycles, base.MeasuredCycles)
	}
}

// TestRunWorkRespectsCycleBound: the runaway guard must cap the window.
func TestRunWorkRespectsCycleBound(t *testing.T) {
	k, _ := trace.ByName("lavaMD")
	cfg := fastConfig(XYBaseline)
	sim, err := NewSimulator(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunWork(t, sim, 1<<60, 500)
	if r.MeasuredCycles > 501 {
		t.Fatalf("cycle bound ignored: measured %d", r.MeasuredCycles)
	}
	if r.Instructions == 0 {
		t.Fatal("no progress under bound")
	}
}

// TestRunWorkActivityUsesRealWindow: static energy must be charged for the
// realised window, not the configured horizon.
func TestRunWorkActivityUsesRealWindow(t *testing.T) {
	k, _ := trace.ByName("bfs")
	cfg := fastConfig(XYBaseline)
	sim, err := NewSimulator(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunWork(t, sim, 5000, 100000)
	if r.Activity.NoCCycles != r.MeasuredCycles {
		t.Fatalf("activity window %d != measured %d", r.Activity.NoCCycles, r.MeasuredCycles)
	}
	if r.MeasuredCycles == cfg.MeasureCycles {
		t.Fatal("suspiciously equal to the configured horizon")
	}
}
