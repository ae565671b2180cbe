package noc

import (
	"testing"
)

// testConfig returns a small validated config for unit tests.
func testConfig(t *testing.T, mutate func(*Config)) Config {
	t.Helper()
	cfg := Config{
		Mesh:      Mesh{Width: 4, Height: 4},
		VCs:       4,
		LinkBits:  128,
		DataBytes: 128,
		Routing:   RouteXY,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	v, err := cfg.Validate()
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return v
}

func newTestNet(t *testing.T, mutate func(*Config)) *Network {
	t.Helper()
	n, err := NewNetwork(testConfig(t, mutate))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func mkPacket(cfg Config, typ PacketType, dst int) *Packet {
	return &Packet{
		Type: typ,
		Dst:  dst,
		Size: PacketSize(typ, cfg.LinkBits, cfg.DataBytes),
	}
}

// stepper is a Network, or a checkedNet whose Step also checks invariants.
type stepper interface {
	Idle() bool
	Step()
	InFlight() int
}

// runUntilIdle steps the network until drained or the cycle limit hits.
func runUntilIdle(t *testing.T, n stepper, limit int) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if n.Idle() {
			return
		}
		n.Step()
	}
	t.Fatalf("network did not drain within %d cycles (inFlight=%d)", limit, n.InFlight())
}

func TestSinglePacketDelivery(t *testing.T) {
	n := newTestNet(t, nil)
	var got *Packet
	var gotNode int
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		got = pkt
		gotNode = node
	})
	pkt := mkPacket(n.Config(), ReadReply, 15)
	if !n.Inject(0, pkt) {
		t.Fatal("Inject rejected on empty network")
	}
	runUntilIdle(t, n, 1000)
	if got == nil {
		t.Fatal("packet never delivered")
	}
	if gotNode != 15 || got != pkt {
		t.Fatalf("delivered to node %d, want 15", gotNode)
	}
	if got.EjectedAt <= got.CreatedAt {
		t.Fatalf("timestamps out of order: created %d ejected %d", got.CreatedAt, got.EjectedAt)
	}
	// Minimum latency sanity: 6 hops, 9 flits, single-cycle routers.
	lat := got.EjectedAt - got.CreatedAt
	if lat < 6+9 {
		t.Fatalf("latency %d implausibly low", lat)
	}
}

func TestAllPairsDeliveryXY(t *testing.T) {
	testAllPairs(t, RouteXY)
}

func TestAllPairsDeliveryAdaptive(t *testing.T) {
	testAllPairs(t, RouteMinAdaptive)
}

func testAllPairs(t *testing.T, algo RoutingAlgo) {
	n := newTestNet(t, func(c *Config) { c.Routing = algo })
	nodes := n.Config().Mesh.Nodes()
	type key struct{ src, dst int }
	want := make(map[key]int)
	got := make(map[key]int)
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		got[key{pkt.Src, node}]++
	})
	// Inject one short packet per ordered pair, spread over cycles so the
	// single-packet-per-cycle NI limit is respected.
	pendingSrc := make([][]*Packet, nodes)
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			pendingSrc[s] = append(pendingSrc[s], mkPacket(n.Config(), ReadRequest, d))
			want[key{s, d}] = 1
		}
	}
	for cycle := 0; cycle < 20000; cycle++ {
		active := false
		for s := 0; s < nodes; s++ {
			if len(pendingSrc[s]) > 0 {
				active = true
				if n.Inject(s, pendingSrc[s][0]) {
					pendingSrc[s] = pendingSrc[s][1:]
				}
			}
		}
		n.Step()
		if !active && n.Idle() {
			break
		}
	}
	if !n.Idle() {
		t.Fatalf("network did not drain; inFlight=%d", n.InFlight())
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("pair %v: got %d deliveries, want %d", k, got[k], w)
		}
	}
}

func TestPacketSizes(t *testing.T) {
	cases := []struct {
		typ      PacketType
		linkBits int
		want     int
	}{
		{ReadRequest, 128, 1},
		{WriteReply, 128, 1},
		{ReadReply, 128, 9}, // 1 header + 128B/16B
		{WriteRequest, 128, 9},
		{ReadReply, 256, 5}, // 1 header + 128B/32B
		{ReadReply, 64, 17},
	}
	for _, c := range cases {
		if got := PacketSize(c.typ, c.linkBits, 128); got != c.want {
			t.Errorf("PacketSize(%v, %d): got %d, want %d", c.typ, c.linkBits, got, c.want)
		}
	}
}

func TestConservationOfFlits(t *testing.T) {
	// Every injected flit must eventually be ejected, under heavy random
	// traffic across all four packet types.
	n := newTestNet(t, func(c *Config) { c.Routing = RouteMinAdaptive })
	cfg := n.Config()
	var ejectedFlits uint64
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		ejectedFlits += uint64(pkt.Size)
	})
	types := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
	seed := uint64(12345)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	injected := uint64(0)
	for cycle := 0; cycle < 3000; cycle++ {
		for s := 0; s < cfg.Mesh.Nodes(); s++ {
			if next(10) < 3 { // ~30% offered load per node
				d := next(cfg.Mesh.Nodes())
				if d == s {
					continue
				}
				pkt := mkPacket(cfg, types[next(4)], d)
				if n.Inject(s, pkt) {
					injected += uint64(pkt.Size)
				}
			}
		}
		n.Step()
	}
	runUntilIdle(t, n, 200000)
	if ejectedFlits != injected {
		t.Fatalf("flit conservation violated: injected %d, ejected %d", injected, ejectedFlits)
	}
	st := n.Stats()
	if st.TotalPackets() == 0 {
		t.Fatal("no packets recorded")
	}
}

func TestXYRoutingPath(t *testing.T) {
	// Under XY routing a packet from (0,0) to (3,2) must traverse exactly
	// x-hops then y-hops; verify via hop count = mesh link traversals.
	n := newTestNet(t, nil)
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {})
	pkt := mkPacket(n.Config(), ReadRequest, n.Config().Mesh.ID(3, 2))
	if !n.Inject(0, pkt) {
		t.Fatal("inject failed")
	}
	runUntilIdle(t, n, 1000)
	// 5 hops * 1 flit.
	if got := n.Stats().MeshLinkFlits; got != 5 {
		t.Fatalf("mesh link flits = %d, want 5", got)
	}
}

func TestInjectRejectsWhenFull(t *testing.T) {
	n := newTestNet(t, nil)
	cfg := n.Config()
	// Saturate node 0's NI: queue is 36 flits = 4 long packets, and only
	// one offer per cycle is accepted.
	if !n.Inject(0, mkPacket(cfg, ReadReply, 5)) {
		t.Fatal("first inject should succeed")
	}
	if n.Inject(0, mkPacket(cfg, ReadReply, 5)) {
		t.Fatal("second inject same cycle should be rejected (1 packet/cycle NI core logic)")
	}
	if n.Stats().NIFullRejects == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		n := newTestNet(t, func(c *Config) {
			c.Routing = RouteMinAdaptive
			c.PriorityLevels = 2
		})
		cfg := n.Config()
		n.SetEjectHandler(func(node int, pkt *Packet, now int64) {})
		seed := uint64(99)
		next := func(mod int) int {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int(seed>>33) % mod
		}
		for cycle := 0; cycle < 2000; cycle++ {
			for s := 0; s < cfg.Mesh.Nodes(); s++ {
				if next(10) < 4 {
					d := next(cfg.Mesh.Nodes())
					if d != s {
						n.Inject(s, mkPacket(cfg, ReadReply, d))
					}
				}
			}
			n.Step()
		}
		st := n.Stats()
		return st.MeshLinkFlits, st.AvgLatency(ReadReply)
	}
	f1, l1 := run()
	f2, l2 := run()
	if f1 != f2 || l1 != l2 {
		t.Fatalf("simulation not deterministic: (%d,%f) vs (%d,%f)", f1, l1, f2, l2)
	}
}

// TestInjectRejectsOversizedPacket: a VC holds one long packet, so both
// fabrics refuse a packet as long as a flit's 16-bit seq can index at Inject.
func TestInjectRejectsOversizedPacket(t *testing.T) {
	for name, f := range map[string]Fabric{
		"mesh":    newTestNet(t, nil),
		"overlay": newTestOverlay(t, nil),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("a 65 536-flit packet was accepted")
				}
			}()
			f.Inject(0, &Packet{Type: ReadReply, Dst: 1, Size: maxPacketFlits + 1})
		})
	}
}

// TestPriorityLevelsValidated: a VC records a packet's arriving priority in
// an int16, so more levels than it holds are rejected.
func TestPriorityLevelsValidated(t *testing.T) {
	cfg := Config{Mesh: Mesh{Width: 4, Height: 4}, VCs: 4, LinkBits: 128, DataBytes: 128}
	cfg.PriorityLevels = 1 << 15
	if _, err := cfg.Validate(); err != nil {
		t.Fatalf("%d priority levels rejected: %v", cfg.PriorityLevels, err)
	}
	cfg.PriorityLevels++
	if _, err := cfg.Validate(); err == nil {
		t.Fatalf("%d priority levels accepted", cfg.PriorityLevels)
	}
}

// TestLongPacketValidated: a flit's 16-bit seq indexes at most 65 535 flits,
// so Validate rejects a config whose long packet is longer; no packet any
// fabric accepts can then overflow it.
func TestLongPacketValidated(t *testing.T) {
	cfg := Config{Mesh: Mesh{Width: 2, Height: 2}, VCs: 4, LinkBits: 8, DataBytes: maxPacketFlits - 1}
	if _, err := cfg.Validate(); err != nil {
		t.Fatalf("a %d-flit long packet rejected: %v", cfg.LongPacketFlits(), err)
	}
	cfg.DataBytes++
	if _, err := cfg.Validate(); err == nil {
		t.Fatalf("a %d-flit long packet accepted", cfg.LongPacketFlits())
	}
}

// TestInjPortsValidated: a router's input ports index the bits of its
// uint32 activity masks, so a node with more injection ports than fit next
// to the four mesh ports is rejected.
func TestInjPortsValidated(t *testing.T) {
	cfg := Config{Mesh: Mesh{Width: 2, Height: 2}, VCs: 4, LinkBits: 128, DataBytes: 128}
	cfg.Nodes = make([]NodeConfig, cfg.Mesh.Nodes())
	cfg.Nodes[3] = NodeConfig{NI: NIMultiPort, InjPorts: 28}
	if _, err := NewNetwork(cfg); err != nil {
		t.Fatalf("28 injection ports rejected: %v", err)
	}
	cfg.Nodes[3].InjPorts++
	if _, err := cfg.Validate(); err == nil {
		t.Fatal("29 injection ports accepted")
	}
}
