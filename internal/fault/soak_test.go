package fault

import (
	"reflect"
	"testing"

	"repro/internal/noc"
)

// soakFingerprint is everything a soak run observes; two runs with the same
// seed must produce identical fingerprints.
type soakFingerprint struct {
	InjectedFlits uint64
	EjectedFlits  uint64
	Stats         noc.NetStats
	Events        []Event
}

// runSoak drives seeded random traffic through a faulted network, then
// drains it and verifies zero flit loss and clean invariants.
func runSoak(t *testing.T, name string, mutate func(*noc.Config), seed uint64) soakFingerprint {
	t.Helper()
	cfg := noc.Config{
		Mesh:      noc.Mesh{Width: 4, Height: 4},
		VCs:       4,
		LinkBits:  128,
		DataBytes: 128,
		Routing:   noc.RouteXY,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatalf("%s: Validate: %v", name, err)
	}
	n, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatalf("%s: NewNetwork: %v", name, err)
	}
	inj, err := NewInjector(SoakConfig(seed), n, 1)
	if err != nil {
		t.Fatalf("%s: NewInjector: %v", name, err)
	}

	var ejected uint64
	n.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) {
		ejected += uint64(pkt.Size)
	})

	// Deterministic traffic stream, independent of the fault stream.
	lcg := seed ^ 0xdeadbeef
	next := func(mod int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int(lcg>>33) % mod
	}
	types := []noc.PacketType{noc.ReadRequest, noc.WriteRequest, noc.ReadReply, noc.WriteReply}
	var injected uint64
	for cycle := 0; cycle < 3000; cycle++ {
		for s := 0; s < cfg.Mesh.Nodes(); s++ {
			if next(10) < 4 {
				d := next(cfg.Mesh.Nodes())
				if d == s {
					continue
				}
				typ := types[next(4)]
				pkt := &noc.Packet{Type: typ, Dst: d, Size: noc.PacketSize(typ, cfg.LinkBits, cfg.DataBytes)}
				if n.Inject(s, pkt) {
					injected += uint64(pkt.Size)
				}
			}
		}
		inj.Step(n.Now())
		stepChecked(t, name, n)
	}
	if len(inj.Events()) == 0 {
		t.Fatalf("%s: soak injected no faults; probabilities too low to exercise anything", name)
	}

	// Drain: no new traffic or faults; already-applied faults expire on
	// their own, after which every buffered flit must reach its ejector.
	for i := 0; i < 200000 && !n.Idle(); i++ {
		stepChecked(t, name, n)
	}
	if !n.Idle() {
		t.Fatalf("%s: network did not drain after faults expired (inFlight=%d)\n%s",
			name, n.InFlight(), n.StateSnapshot().String())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants dirty after drain: %v", name, err)
	}
	if ejected != injected {
		t.Fatalf("%s: flit loss under faults: injected %d, ejected %d", name, injected, ejected)
	}
	return soakFingerprint{
		InjectedFlits: injected,
		EjectedFlits:  ejected,
		Stats:         *n.Stats(),
		Events:        inj.Events(),
	}
}

// stepChecked advances n one cycle and checks every NoC invariant each 64
// cycles of a soak, drain included — among them that the live packet-table
// slots are exactly the packets with a buffered flit, which holds the
// watchdog's age scan to a walk of every buffer — and the age scan against
// the sorted list of the diagnostics.
func stepChecked(t *testing.T, name string, n *noc.Network) {
	t.Helper()
	now := n.Now()
	n.Step()
	if now%64 == 0 {
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariant violated at cycle %d: %v", name, now, err)
		}
		want := int64(0)
		if old := n.OldestPackets(1); len(old) > 0 {
			want = n.Now() - old[0].CreatedAt
		}
		if got := n.OldestPacketAge(); got != want {
			t.Fatalf("%s: cycle %d: OldestPacketAge %d, oldest of OldestPackets %d cycles", name, now, got, want)
		}
	}
}

// soakSchemes are the ≥3 injection architectures the soak matrix covers:
// the XY baseline, an ARI-style configuration (adaptive routing, split NIs
// with crossbar speedup and prioritisation), and the MultiPort scheme.
func soakSchemes() map[string]func(*noc.Config) {
	return map[string]func(*noc.Config){
		"xy-baseline": nil,
		"ada-ari": func(c *noc.Config) {
			c.Routing = noc.RouteMinAdaptive
			c.PriorityLevels = 2
			c.Nodes = make([]noc.NodeConfig, c.Mesh.Nodes())
			for i := 0; i < c.Mesh.Nodes(); i += 3 {
				c.Nodes[i] = noc.NodeConfig{NI: noc.NISplit, InjSpeedup: 4}
			}
		},
		"multiport": func(c *noc.Config) {
			c.Routing = noc.RouteMinAdaptive
			c.Nodes = make([]noc.NodeConfig, c.Mesh.Nodes())
			for i := 0; i < c.Mesh.Nodes(); i += 4 {
				c.Nodes[i] = noc.NodeConfig{NI: noc.NIMultiPort, InjPorts: 2}
			}
		},
	}
}

// TestSoakZeroFlitLoss is the fault-injection soak: every scheme absorbs a
// dense schedule of link stalls, port freezes and NI bursts with zero flit
// loss and invariants clean throughout (checked every 64 cycles).
func TestSoakZeroFlitLoss(t *testing.T) {
	seed := uint64(11)
	for name, mutate := range soakSchemes() {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			runSoak(t, name, mutate, seed)
		})
		seed++
	}
}

// TestSoakDeterministicReplay pins seeded replayability: the same seed
// produces a byte-identical fault schedule and simulation outcome, and a
// different seed produces a different schedule.
func TestSoakDeterministicReplay(t *testing.T) {
	schemes := soakSchemes()
	a := runSoak(t, "ada-ari", schemes["ada-ari"], 42)
	b := runSoak(t, "ada-ari", schemes["ada-ari"], 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	c := runSoak(t, "ada-ari", schemes["ada-ari"], 43)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestInjectorValidation pins Config.Validate's rejection of bad inputs.
func TestInjectorValidation(t *testing.T) {
	bad := []Config{
		{Enabled: true, LinkStallProb: -0.1},
		{Enabled: true, NIStallProb: 1.5},
		{Enabled: true, MinDuration: 10, MaxDuration: 5},
		{Enabled: true, MinDuration: -1},
	}
	for i, cfg := range bad {
		if _, err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}
