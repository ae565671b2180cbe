package noc

import "testing"

func newTestOverlay(t *testing.T, mutate func(*Config)) *DA2Mesh {
	t.Helper()
	d, err := NewDA2Mesh(testConfig(t, mutate))
	if err != nil {
		t.Fatalf("NewDA2Mesh: %v", err)
	}
	return d
}

func TestOverlayDelivery(t *testing.T) {
	d := newTestOverlay(t, nil)
	var got *Packet
	d.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		if node != 15 {
			t.Errorf("delivered to node %d, want 15", node)
		}
		got = pkt
	})
	pkt := mkPacket(d.cfg, ReadReply, 15)
	if !d.Inject(0, pkt) {
		t.Fatal("inject rejected")
	}
	for i := 0; i < 200 && d.InFlight() > 0; i++ {
		d.Step()
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// Latency must cover streaming (9 flits) plus hop delay (6 hops).
	lat := got.EjectedAt - got.CreatedAt
	if lat < 9+6 {
		t.Fatalf("overlay latency %d implausibly low", lat)
	}
	if d.Stats().PacketsEjected[ReadReply] != 1 {
		t.Fatal("stats missed the delivery")
	}
}

func TestOverlayHopLatencyScales(t *testing.T) {
	lat := func(dst int) int64 {
		d := newTestOverlay(t, nil)
		var when int64
		d.SetEjectHandler(func(node int, pkt *Packet, now int64) { when = now })
		d.Inject(0, mkPacket(d.cfg, ReadReply, dst))
		for i := 0; i < 200 && d.InFlight() > 0; i++ {
			d.Step()
		}
		return when
	}
	near, far := lat(1), lat(15)
	if far-near != int64(Mesh{Width: 4, Height: 4}.Hops(1, 15)) {
		t.Fatalf("hop scaling wrong: near %d far %d", near, far)
	}
}

func TestOverlayInjectionSerialisation(t *testing.T) {
	// Baseline overlay NI supplies one flit per cycle: injecting N long
	// packets takes ~N*9 cycles to drain; the ARI split NI drains up to
	// VCs per cycle.
	drainTime := func(nc NodeConfig) int64 {
		d := newTestOverlay(t, func(c *Config) {
			c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
			c.Nodes[0] = nc
		})
		d.SetEjectHandler(func(int, *Packet, int64) {})
		// Offer one packet per cycle to distinct destinations.
		dst := 1
		offered := 0
		for offered < 8 {
			if d.Inject(0, mkPacket(d.cfg, ReadReply, dst)) {
				offered++
				dst++
			}
			d.Step()
		}
		for d.InFlight() > 0 {
			d.Step()
			if d.Now() > 10000 {
				t.Fatal("overlay did not drain")
			}
		}
		return d.Now()
	}
	base := drainTime(NodeConfig{})
	ari := drainTime(NodeConfig{NI: NISplit, InjSpeedup: 4})
	if ari >= base {
		t.Fatalf("ARI overlay drain (%d) not faster than baseline (%d)", ari, base)
	}
}

func TestOverlayEjectionContention(t *testing.T) {
	// Many sources to one destination: delivery rate is capped by the
	// destination's EjectRate.
	d := newTestOverlay(t, func(c *Config) {
		c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
		for i := range c.Nodes {
			c.Nodes[i] = NodeConfig{NI: NISplit, InjSpeedup: 4}
		}
	})
	var flits uint64
	d.SetEjectHandler(func(node int, pkt *Packet, now int64) { flits += uint64(pkt.Size) })
	const cycles = 2000
	for c := 0; c < cycles; c++ {
		for s := 1; s < 16; s++ {
			d.Inject(s, mkPacket(d.cfg, ReadReply, 0))
		}
		d.Step()
	}
	rate := float64(flits) / cycles
	if rate > 1.01 {
		t.Fatalf("hot destination consumed %.3f flits/cycle, above the EjectRate of 1", rate)
	}
	if rate < 0.5 {
		t.Fatalf("hot destination rate %.3f implausibly low", rate)
	}
}

func TestOverlayOfferRateLimit(t *testing.T) {
	d := newTestOverlay(t, nil)
	if !d.Inject(0, mkPacket(d.cfg, ReadReply, 3)) {
		t.Fatal("first inject failed")
	}
	if d.Inject(0, mkPacket(d.cfg, ReadReply, 3)) {
		t.Fatal("second inject in the same cycle accepted")
	}
	if d.Stats().NIFullRejects == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestOverlayConservation delivers every accepted packet exactly once, with
// the packet table consistent throughout, under every NI architecture.
func TestOverlayConservation(t *testing.T) {
	for name, nc := range map[string]NodeConfig{
		"baseline":  {},
		"split":     {NI: NISplit, InjSpeedup: 4},
		"multiport": {NI: NIMultiPort, InjPorts: 2},
	} {
		t.Run(name, func(t *testing.T) {
			d := newTestOverlay(t, func(c *Config) {
				c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
				for i := range c.Nodes {
					c.Nodes[i] = nc
				}
			})
			var delivered uint64
			d.SetEjectHandler(func(int, *Packet, int64) { delivered++ })
			seed := uint64(7)
			next := func(mod int) int {
				seed = seed*6364136223846793005 + 1442695040888963407
				return int(seed>>33) % mod
			}
			var injected uint64
			for c := 0; c < 3000; c++ {
				s := next(16)
				dst := next(16)
				if s != dst && d.Inject(s, mkPacket(d.cfg, ReadReply, dst)) {
					injected++
				}
				d.Step()
				if c%7 == 0 {
					if err := d.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", c, err)
					}
				}
			}
			for i := 0; i < 100000 && d.InFlight() > 0; i++ {
				d.Step()
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("after drain: %v", err)
			}
			if delivered != injected {
				t.Fatalf("overlay conservation: injected %d delivered %d", injected, delivered)
			}
		})
	}
}

func TestOverlayResetStats(t *testing.T) {
	d := newTestOverlay(t, nil)
	d.SetEjectHandler(func(int, *Packet, int64) {})
	d.Inject(0, mkPacket(d.cfg, ReadReply, 3))
	for i := 0; i < 50; i++ {
		d.Step()
	}
	d.ResetStats()
	st := d.Stats()
	if st.PacketsInjected[ReadReply] != 0 || st.EjectFlits != 0 {
		t.Fatal("ResetStats left counters")
	}
	if st.InjLinks == 0 {
		t.Fatal("ResetStats destroyed structural fields")
	}
}
