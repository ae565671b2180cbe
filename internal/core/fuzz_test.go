package core_test

import (
	"testing"

	"repro/internal/analytic"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
)

// pastNoCLimits are Table I configs each past one limit of the networks the
// config derives: more VCs than a router supports, a negative NI queue, a
// 4096×4096 mesh whose 4.2 G flits of buffering overflow a ring's int32
// offset, and lines the MC interleave cannot spread over every MC.
func pastNoCLimits() map[string]core.Config {
	vcs, niq, mesh := core.DefaultConfig(), core.DefaultConfig(), core.DefaultConfig()
	vcs.VCs = 40
	niq.NIQueueFlits = -5
	mesh.MeshWidth, mesh.MeshHeight = 4096, 4096
	// Lines the MC interleave does not match: a 64 B L2 line under the
	// 128 B L1 line a packet carries, and 64 B lines throughout, below the
	// workloads' 128 B transactions. Either leaves half the MCs without a
	// request.
	half, small := core.DefaultConfig(), core.DefaultConfig()
	half.MC.L2.LineBytes = 64
	small.Core.L1.LineBytes, small.MC.L2.LineBytes = 64, 64
	return map[string]core.Config{"VCs 40": vcs, "NIQueueFlits -5": niq, "mesh 4096x4096": mesh,
		"L2 line 64": half, "64 B lines": small}
}

// TestGateAgreement: every entry point that takes a Config refuses what
// Validate refuses — the simulator and the estimator alike — and the
// simulator refuses it with Validate's error, before building anything.
func TestGateAgreement(t *testing.T) {
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range pastNoCLimits() {
		verr := cfg.Validate()
		if verr == nil {
			t.Errorf("%s: Validate accepted it", name)
			continue
		}
		if _, err := core.NewSimulator(cfg, k); err == nil || err.Error() != verr.Error() {
			t.Errorf("%s: NewSimulator returned %v, want Validate's %v", name, err, verr)
		}
		if _, err := analytic.NewModel(cfg); err == nil {
			t.Errorf("%s: analytic.NewModel accepted it", name)
		}
	}
}

// FuzzConfigValidate throws arbitrary geometry at Config.Validate: every
// input must yield either nil or an error — never a panic — and a config it
// accepts must construct. The L1 fields are included because cache geometry
// validation does modular arithmetic that an int overflow could turn into a
// division by zero. Construction is checked on meshes of at most 8x8 with an
// L1 of at most 1 MB, which keeps each input's allocation small.
func FuzzConfigValidate(f *testing.F) {
	f.Add(6, 6, 8, 4, 16<<10, 128, 4, int64(4000), int64(20000), 4, 0)
	f.Add(8, 8, 8, 4, 16<<10, 128, 4, int64(0), int64(1), 3, 0)
	f.Add(0, 0, 0, 0, 0, 0, 0, int64(-1), int64(0), 0, 0)
	f.Add(1<<20, 1<<20, 1, 4, 16<<10, 128, 4, int64(100), int64(100), 0, 0)
	f.Add(4096, 4096, 8, 4, 16<<10, 128, 4, int64(100), int64(100), 4, 0)
	f.Add(6, 6, 8, 4, 1<<62, 1<<31, 1<<31, int64(100), int64(100), 0, 0)
	f.Add(6, 6, 8, 4, 1<<30, 1<<62, 4, int64(100), int64(100), 0, 0)
	// MC counts the placement cannot put on distinct nodes.
	f.Add(6, 6, 24, 4, 16<<10, 128, 4, int64(100), int64(100), 0, 0)
	f.Add(1, 6, 5, 4, 16<<10, 128, 4, int64(100), int64(100), 0, 0)

	k, err := trace.ByName("bfs")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, w, h, mc, vcs, l1Size, l1Line, l1Ways int,
		warmup, measure int64, scheme, niQueue int) {
		cfg := core.DefaultConfig()
		cfg.MeshWidth = w
		cfg.MeshHeight = h
		cfg.NumMC = mc
		cfg.VCs = vcs
		cfg.Core.L1 = cache.Config{SizeBytes: l1Size, LineBytes: l1Line, Ways: l1Ways}
		cfg.WarmupCycles = warmup
		cfg.MeasureCycles = measure
		cfg.Scheme = core.Scheme(scheme)
		cfg.NIQueueFlits = niQueue
		if cfg.Validate() != nil || w > 8 || h > 8 || l1Size > 1<<20 {
			return
		}
		if _, err := core.NewSimulator(cfg, k); err != nil {
			t.Fatalf("Validate accepted a config NewSimulator refuses: %v", err)
		}
		if cfg.Scheme.Mechanisms().Overlay || cfg.IdealReply {
			return
		}
		if _, err := analytic.NewModel(cfg); err != nil {
			t.Fatalf("Validate accepted a config analytic.NewModel refuses: %v", err)
		}
	})
}
