package analytic

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func TestNewModelRejectsUnmodelled(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"da2mesh", func(c *core.Config) { c.Scheme = core.DA2MeshBase }},
		{"da2mesh+ari", func(c *core.Config) { c.Scheme = core.DA2MeshARI }},
		{"ideal reply", func(c *core.Config) { c.IdealReply = true }},
		{"invalid mesh", func(c *core.Config) { c.MeshWidth = 0 }},
		{"invalid mc", func(c *core.Config) { c.NumMC = 0 }},
	} {
		cfg := core.DefaultConfig()
		tc.mutate(&cfg)
		if _, err := NewModel(cfg); err == nil {
			t.Errorf("%s: NewModel accepted an unmodellable config", tc.name)
		}
	}
}

// TestSchemeSeam locks the injection-architecture parameters each scheme
// maps to — the seam the whole per-scheme differentiation rides on.
func TestSchemeSeam(t *testing.T) {
	build := func(s core.Scheme) *Model {
		cfg := core.DefaultConfig()
		cfg.Scheme = s
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatalf("NewModel(%s): %v", s, err)
		}
		return m
	}

	base := build(core.XYBaseline)
	if base.supplyRate != 1 || base.consumeRate != 1 || base.multiPorts != 1 || base.priority {
		t.Errorf("baseline: supply=%v consume=%v ports=%v priority=%v, want 1/1/1/false",
			base.supplyRate, base.consumeRate, base.multiPorts, base.priority)
	}

	ari := build(core.AdaARI)
	if ari.supplyRate != 4 || ari.consumeRate != 4 || !ari.priority {
		t.Errorf("ARI: supply=%v consume=%v priority=%v, want 4/4/true",
			ari.supplyRate, ari.consumeRate, ari.priority)
	}

	mp := build(core.AdaMultiPort)
	if mp.supplyRate != 1 || mp.multiPorts != 2 {
		t.Errorf("MultiPort: supply=%v ports=%v, want 1/2", mp.supplyRate, mp.multiPorts)
	}

	if ari.ReplySaturationRate() <= base.ReplySaturationRate() {
		t.Errorf("ARI saturation %v not above baseline %v",
			ari.ReplySaturationRate(), base.ReplySaturationRate())
	}
}

func TestMG1WaitBounded(t *testing.T) {
	if w := mg1Wait(0, 9, 81, 36); w != 0 {
		t.Errorf("zero arrivals wait %v, want 0", w)
	}
	// Past saturation (rho >= rhoMax) the wait must pin at the buffer bound
	// instead of diverging.
	if w := mg1Wait(10, 9, 81, 36); w != 36 {
		t.Errorf("overloaded wait %v, want the 36-flit bound", w)
	}
	// Below saturation the wait is the M/G/1 formula, still capped.
	w := mg1Wait(0.05, 9, 81, 36)
	if w <= 0 || w > 36 {
		t.Errorf("moderate-load wait %v out of (0, 36]", w)
	}
}

// TestEstimateFiniteAcrossSuite runs the closed-loop estimator over every
// (benchmark, modelled scheme) point: all outputs must be finite,
// non-negative, and physically plausible. This is the guard the old damped
// fixed point failed — it could leave a mid-oscillation overload penalty
// (millions of cycles) in the answer.
func TestEstimateFiniteAcrossSuite(t *testing.T) {
	for _, s := range ValidationSchemes() {
		cfg := core.DefaultConfig()
		cfg.Scheme = s
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range trace.Suite() {
			est := m.Estimate(k)
			for name, v := range map[string]float64{
				"IPC": est.IPC, "ReqLatency": est.ReqLatency, "RepLatency": est.RepLatency,
				"RoundTrip": est.RoundTrip, "MCService": est.MCService,
				"RepInjRate": est.RepInjRate, "SaturationRate": est.SaturationRate,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s/%s: %s = %v", k.Name, s, name, v)
				}
			}
			if maxIPC := float64(m.nCores); est.IPC > maxIPC+1e-9 {
				t.Errorf("%s/%s: IPC %v exceeds the %v issue-slot bound", k.Name, s, est.IPC, maxIPC)
			}
			// A round trip can never beat the zero-load network plus MC floor.
			if est.RoundTrip < est.MCService {
				t.Errorf("%s/%s: round trip %v below MC service %v", k.Name, s, est.RoundTrip, est.MCService)
			}
		}
	}
}

// TestEstimateSuiteOrder locks that EstimateSuite answers in suite order
// with the right labels — the serving layer indexes into it positionally.
func TestEstimateSuiteOrder(t *testing.T) {
	cfg := core.DefaultConfig()
	ests, err := EstimateSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	suite := trace.Suite()
	if len(ests) != len(suite) {
		t.Fatalf("got %d estimates for %d kernels", len(ests), len(suite))
	}
	for i, k := range suite {
		if ests[i].Bench != k.Name {
			t.Errorf("estimate %d is %q, want %q", i, ests[i].Bench, k.Name)
		}
		if ests[i].Scheme != cfg.Scheme.String() {
			t.Errorf("estimate %d scheme %q, want %q", i, ests[i].Scheme, cfg.Scheme)
		}
	}
}

// TestModelReadsSimulatorNIQueue: the NI queue bound is the one the
// simulator builds — four long reply packets by default, capped at what a
// flit ring holds once a long packet passes 16 383 flits.
func TestModelReadsSimulatorNIQueue(t *testing.T) {
	for _, tc := range []struct {
		linkBits, dataBytes int
		want                float64
	}{{128, 128, 36}, {8, 128, 4 * 129}, {8, 32768, 65535}} {
		cfg := core.DefaultConfig()
		cfg.Scheme = core.AdaARI
		cfg.RepLinkBits = tc.linkBits
		// A packet carries one cache line: both caches keep their set
		// counts' power of two at the line size.
		cfg.Core.L1.LineBytes, cfg.Core.L1.SizeBytes = tc.dataBytes, tc.dataBytes*cfg.Core.L1.Ways
		cfg.MC.L2.LineBytes, cfg.MC.L2.SizeBytes = tc.dataBytes, tc.dataBytes*cfg.MC.L2.Ways
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.niQueueFlits != tc.want {
			t.Errorf("%d-bit links, %d B lines: NI queue %v flits, want %v", tc.linkBits, tc.dataBytes, m.niQueueFlits, tc.want)
		}
	}
}

// TestModelReadsSimulatorL2Latency: the model's L2 term is the configured
// L2 latency, 0 included, since the simulator runs a 0-cycle L2 as
// configured: an all-hit MC with an idle DRAM channel turns a request
// around in L2Latency cycles.
func TestModelReadsSimulatorL2Latency(t *testing.T) {
	for _, l2 := range []int{0, 20, 35} {
		cfg := core.DefaultConfig()
		cfg.MC.L2Latency = l2
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.mcServiceTime(1, 0.1); got != float64(l2) {
			t.Errorf("L2Latency %d: all-hit MC turnaround %v cycles", l2, got)
		}
	}
}
