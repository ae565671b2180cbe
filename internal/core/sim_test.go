package core

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/trace"
)

// fastConfig returns Table I defaults with test-sized horizons.
func fastConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2000
	return cfg
}

func runBench(t *testing.T, name string, cfg Config) Result {
	t.Helper()
	k, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return mustRun(t, sim)
}

// mustRun runs sim over its fixed horizon under the default watchdogs.
func mustRun(t testing.TB, sim *Simulator) Result {
	t.Helper()
	r, err := sim.RunChecked(CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustRunWork runs sim in fixed-work mode under the default watchdogs.
func mustRunWork(t testing.TB, sim *Simulator, instructions uint64, maxCycles int64) Result {
	t.Helper()
	r, err := sim.RunWorkChecked(instructions, maxCycles, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEndToEndBaseline(t *testing.T) {
	r := runBench(t, "bfs", fastConfig(XYBaseline))
	if r.Instructions == 0 || r.IPC <= 0 {
		t.Fatalf("no forward progress: %+v", r)
	}
	if r.RepliesSent == 0 {
		t.Fatal("no replies flowed through the reply network")
	}
	// All four packet types must appear (Fig 5's traffic mix exists).
	for pt := 0; pt < noc.NumPacketTypes; pt++ {
		typ := noc.PacketType(pt)
		n := r.Req.PacketsInjected[pt] + r.Rep.PacketsInjected[pt]
		if n == 0 {
			t.Fatalf("packet type %v never injected", typ)
		}
	}
	// Request types travel on the request network only, replies on the
	// reply network only.
	if r.Req.PacketsInjected[noc.ReadReply] != 0 || r.Rep.PacketsInjected[noc.ReadRequest] != 0 {
		t.Fatal("packet type on the wrong network")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runBench(t, "hotspot", fastConfig(AdaARI))
	b := runBench(t, "hotspot", fastConfig(AdaARI))
	if a.Instructions != b.Instructions || a.MCStallTime != b.MCStallTime ||
		a.Rep.MeshLinkFlits != b.Rep.MeshLinkFlits {
		t.Fatalf("simulation not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := fastConfig(XYBaseline)
	a := runBench(t, "bfs", cfg)
	cfg.Seed = 99
	b := runBench(t, "bfs", cfg)
	if a.Instructions == b.Instructions && a.Rep.MeshLinkFlits == b.Rep.MeshLinkFlits {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestARIBeatsBaselineOnHighSensitivity(t *testing.T) {
	base := runBench(t, "bfs", fastConfig(AdaBaseline))
	ari := runBench(t, "bfs", fastConfig(AdaARI))
	if ari.IPC <= base.IPC {
		t.Fatalf("ARI IPC %.3f not above baseline %.3f on bfs", ari.IPC, base.IPC)
	}
	// The headline mechanism: ARI must cut per-reply MC stall time.
	baseStall := float64(base.MCStallTime) / float64(base.RepliesSent)
	ariStall := float64(ari.MCStallTime) / float64(ari.RepliesSent)
	if ariStall >= baseStall {
		t.Fatalf("ARI stall/reply %.1f not below baseline %.1f", ariStall, baseStall)
	}
}

func TestLowSensitivityUnaffected(t *testing.T) {
	base := runBench(t, "lavaMD", fastConfig(AdaBaseline))
	ari := runBench(t, "lavaMD", fastConfig(AdaARI))
	rel := ari.IPC / base.IPC
	if rel < 0.97 || rel > 1.10 {
		t.Fatalf("low-sensitivity benchmark moved by %.3fx under ARI", rel)
	}
}

func TestSchemeWiring(t *testing.T) {
	for s := Scheme(0); int(s) < NumSchemes; s++ {
		cfg := fastConfig(s)
		cfg.MeasureCycles = 300
		cfg.WarmupCycles = 100
		r := runBench(t, "kmeans", cfg)
		if r.Instructions == 0 {
			t.Fatalf("scheme %v made no progress", s)
		}
		if r.Scheme != s {
			t.Fatalf("result tagged %v, want %v", r.Scheme, s)
		}
	}
}

func TestOverlaySchemeUsesDA2Mesh(t *testing.T) {
	k, _ := trace.ByName("bfs")
	sim, err := NewSimulator(fastConfig(DA2MeshARI), k)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.ReplyNet().(*noc.DA2Mesh); !ok {
		t.Fatalf("reply fabric is %T, want *noc.DA2Mesh", sim.ReplyNet())
	}
	sim2, _ := NewSimulator(fastConfig(AdaARI), k)
	if _, ok := sim2.ReplyNet().(*noc.Network); !ok {
		t.Fatalf("reply fabric is %T, want *noc.Network", sim2.ReplyNet())
	}
}

func TestMeshSizes(t *testing.T) {
	for _, sz := range []struct{ w, h, mc int }{{4, 4, 4}, {6, 6, 8}, {8, 8, 8}} {
		cfg := fastConfig(XYBaseline)
		cfg.MeshWidth, cfg.MeshHeight, cfg.NumMC = sz.w, sz.h, sz.mc
		cfg.MeasureCycles = 400
		cfg.WarmupCycles = 100
		r := runBench(t, "bfs", cfg)
		if r.Instructions == 0 {
			t.Fatalf("%dx%d made no progress", sz.w, sz.h)
		}
	}
}

func TestAddressToMCMapping(t *testing.T) {
	k, _ := trace.ByName("bfs")
	sim, err := NewSimulator(fastConfig(XYBaseline), k)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for line := uint64(0); line < 64; line++ {
		node := sim.mcNodeFor(line * 128)
		seen[node] = true
		found := false
		for _, mc := range sim.MCNodes() {
			if mc == node {
				found = true
			}
		}
		if !found {
			t.Fatalf("address mapped to non-MC node %d", node)
		}
	}
	if len(seen) != len(sim.MCNodes()) {
		t.Fatalf("interleaving covers %d MCs, want %d", len(seen), len(sim.MCNodes()))
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.MeshWidth = 0 },
		func(c *Config) { c.NumMC = 0 },
		func(c *Config) { c.NumMC = 100 },
		func(c *Config) { c.Scheme = Scheme(99) },
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.CoreClockDen = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestChooseSpeedup(t *testing.T) {
	// Eq. (1): S >= rate x flits, minimal integer; eq. (2): S <= min(out, vcs).
	cases := []struct {
		rate, flits float64
		out, vcs    int
		want        int
	}{
		{0.10, 8.2, 4, 4, 1},
		{0.30, 8.2, 4, 4, 3},
		{0.50, 8.2, 4, 4, 4}, // 4.1 clamped by eq. 2
		{0.90, 8.2, 4, 4, 4},
		{0.30, 8.2, 4, 2, 2}, // VC bound
		{0.30, 8.2, 2, 4, 2}, // output bound
		{0, 0, 4, 4, 1},
	}
	for i, c := range cases {
		if got := ChooseSpeedup(c.rate, c.flits, c.out, c.vcs); got != c.want {
			t.Fatalf("case %d: ChooseSpeedup = %d, want %d", i, got, c.want)
		}
	}
}

func TestSchemeProperties(t *testing.T) {
	if XYBaseline.Routing() != noc.RouteXY || AdaARI.Routing() != noc.RouteMinAdaptive {
		t.Fatal("routing mapping wrong")
	}
	if !AdaARI.HasSplitNI() || !AdaARI.HasSpeedup() || !AdaARI.HasPriority() {
		t.Fatal("AdaARI must enable all three mechanisms")
	}
	if AccSupply.HasSpeedup() || AccConsume.HasSplitNI() || AccBothNoPriority.HasPriority() {
		t.Fatal("ablation schemes enable the wrong mechanisms")
	}
	if !DA2MeshARI.UsesOverlay() || DA2MeshBase.HasSplitNI() {
		t.Fatal("overlay schemes wired wrong")
	}
	if !AdaMultiPort.IsMultiPort() || AdaARI.IsMultiPort() {
		t.Fatal("MultiPort flag wrong")
	}
}

func TestWarmupResetIsolation(t *testing.T) {
	// A run with warmup must report fewer instructions than one measuring
	// from cycle 0 over the same total horizon (stats reset works).
	k, _ := trace.ByName("bfs")
	cfg := fastConfig(XYBaseline)
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 1000
	simA, _ := NewSimulator(cfg, k)
	a := mustRun(t, simA)
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 2000
	simB, _ := NewSimulator(cfg, k)
	b := mustRun(t, simB)
	if a.Instructions >= b.Instructions {
		t.Fatalf("warmup reset broken: %d >= %d", a.Instructions, b.Instructions)
	}
	if a.MeasuredCycles != 1000 {
		t.Fatalf("measured cycles = %d, want 1000", a.MeasuredCycles)
	}
}
