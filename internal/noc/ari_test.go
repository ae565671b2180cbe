package noc

import "testing"

// ariSrc is the injecting node for the throughput tests: a central node of
// the 4x4 mesh, so all four mesh outputs are available (the few-to-many
// pattern of a reply-network MC).
const ariSrc = 5

// ariConfig returns a 4x4 adaptive-routing config where the central node
// has the given injection architecture (standing in for an MC node on the
// reply network).
func ariConfig(t *testing.T, nc NodeConfig) Config {
	return testConfig(t, func(c *Config) {
		c.Routing = RouteMinAdaptive
		c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
		c.Nodes[ariSrc] = nc
	})
}

// measureInjectionThroughput floods the source with long packets to all
// other nodes for `cycles` and returns delivered flits per cycle.
func measureInjectionThroughput(t *testing.T, cfg Config, cycles int) float64 {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flits uint64
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		flits += uint64(pkt.Size)
	})
	dst := 0
	for c := 0; c < cycles; c++ {
		if dst == ariSrc {
			dst = (dst + 1) % cfg.Mesh.Nodes()
		}
		pkt := mkPacket(cfg, ReadReply, dst)
		if n.Inject(ariSrc, pkt) {
			dst = (dst + 1) % cfg.Mesh.Nodes()
		}
		n.Step()
	}
	return float64(flits) / float64(cycles)
}

func TestSplitNISuppliesFasterThanBaseline(t *testing.T) {
	base := measureInjectionThroughput(t, ariConfig(t, NodeConfig{}), 3000)
	// Supply acceleration alone: split queues, no crossbar speedup.
	split := measureInjectionThroughput(t, ariConfig(t, NodeConfig{NI: NISplit}), 3000)
	// Full ARI: split + speedup.
	ari := measureInjectionThroughput(t, ariConfig(t, NodeConfig{NI: NISplit, InjSpeedup: 4}), 3000)

	if base <= 0 {
		t.Fatal("baseline delivered nothing")
	}
	// Baseline is bounded by the single narrow link: <= 1 flit/cycle.
	if base > 1.0 {
		t.Fatalf("baseline injection throughput %.3f exceeds the narrow link", base)
	}
	// Split without speedup cannot be consumed faster than one flit/cycle
	// through the single switch-port (the §7.1 Acc-Supply observation).
	if split > 1.05 {
		t.Fatalf("split-only throughput %.3f should stay switch-limited near 1", split)
	}
	// Full ARI must clearly exceed the baseline (paper: supply AND
	// consumption must both be accelerated).
	if ari < base*1.5 {
		t.Fatalf("ARI throughput %.3f not clearly above baseline %.3f", ari, base)
	}
}

func TestSpeedupAloneIsConsumptionLimited(t *testing.T) {
	// Consumption acceleration alone keeps the narrow single supply link:
	// throughput stays ~1 flit/cycle (the §7.1 Acc-Consume observation).
	only := measureInjectionThroughput(t, ariConfig(t, NodeConfig{InjSpeedup: 4}), 3000)
	if only > 1.05 {
		t.Fatalf("consume-only throughput %.3f exceeds the supply link", only)
	}
}

func TestMultiPortBetweenBaselineAndARI(t *testing.T) {
	base := measureInjectionThroughput(t, ariConfig(t, NodeConfig{}), 3000)
	multi := measureInjectionThroughput(t, ariConfig(t, NodeConfig{NI: NIMultiPort, InjPorts: 2}), 3000)
	ari := measureInjectionThroughput(t, ariConfig(t, NodeConfig{NI: NISplit, InjSpeedup: 4}), 3000)
	if multi < base*0.95 {
		t.Fatalf("MultiPort (%.3f) worse than baseline (%.3f)", multi, base)
	}
	if multi > ari {
		t.Fatalf("MultiPort (%.3f) outperformed full ARI (%.3f)", multi, ari)
	}
}

func TestInjSpeedupClampedToVCs(t *testing.T) {
	nc := NodeConfig{InjSpeedup: 99}
	if got := nc.injSpeedup(4); got != 4 {
		t.Fatalf("speedup clamp: got %d, want 4 (eq. 2)", got)
	}
	if got := nc.injSpeedup(2); got != 2 {
		t.Fatalf("speedup clamp: got %d, want 2", got)
	}
	zero := NodeConfig{}
	if got := zero.injSpeedup(4); got != 1 {
		t.Fatalf("default speedup: got %d, want 1", got)
	}
	if got := zero.injPorts(); got != 1 {
		t.Fatalf("default ports: got %d, want 1", got)
	}
}

func TestMCRouterHasExtraSwitchPorts(t *testing.T) {
	n, err := NewNetwork(ariConfig(t, NodeConfig{NI: NISplit, InjSpeedup: 4}))
	if err != nil {
		t.Fatal(err)
	}
	rMC := &n.routers[ariSrc]
	// 4 mesh ports x 1 + injection port x 4 = 8 switch-ports.
	if got := len(rMC.sps); got != 8 {
		t.Fatalf("MC-router switch ports = %d, want 8", got)
	}
	r1 := &n.routers[1]
	if got := len(r1.sps); got != 5 {
		t.Fatalf("non-MC router switch ports = %d, want 5", got)
	}
}

func TestPriorityFieldDecrementsPerHop(t *testing.T) {
	cfg := testConfig(t, func(c *Config) { c.PriorityLevels = 4 })
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var final int
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) { final = pkt.Priority })
	pkt := mkPacket(cfg, ReadRequest, 3) // 3 hops on row 0 => 4 RCs incl. eject
	if !n.Inject(0, pkt) {
		t.Fatal("inject failed")
	}
	runUntilIdle(t, n, 1000)
	// Generated at 3; decremented at nodes 0,1,2,3 -> floor 0 reached.
	if final != 0 {
		t.Fatalf("final priority %d, want 0", final)
	}
}

func TestPriorityFavoursInjectionAtContendedOutput(t *testing.T) {
	// Deterministic micro-scenario on a 1x3 mesh: a through packet from
	// node 0 is mid-flight across router 1 when node 1 injects its own
	// packet. Both hold East-bound VCs at router 1 and contend flit by
	// flit for the East output. With ARI priority, the freshly injected
	// packet (priority 1) must overtake the in-network one (priority 0);
	// without priority, the earlier through packet finishes first.
	run := func(levels int) (injDone, thruDone int64) {
		cfg := Config{
			Mesh:           Mesh{Width: 3, Height: 1},
			VCs:            4,
			LinkBits:       128,
			DataBytes:      128,
			Routing:        RouteXY,
			PriorityLevels: levels,
			EjectRate:      1,
			Nodes: []NodeConfig{
				{}, {NI: NISplit, InjSpeedup: 4}, {},
			},
		}
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := map[int]int64{}
		n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
			done[pkt.Src] = now
		})
		thru := mkPacket(cfg, ReadReply, 2)
		if !n.Inject(0, thru) {
			t.Fatal("through inject failed")
		}
		// Let the through packet reach router 1 and start traversing.
		for i := 0; i < 6; i++ {
			n.Step()
		}
		inj := mkPacket(cfg, ReadReply, 2)
		if !n.Inject(1, inj) {
			t.Fatal("local inject failed")
		}
		for i := 0; i < 200; i++ {
			n.Step()
		}
		if done[0] == 0 || done[1] == 0 {
			t.Fatalf("packets not delivered: %v", done)
		}
		return done[1], done[0]
	}
	injPri, thruPri := run(2)
	if injPri >= thruPri {
		t.Fatalf("with priority, injected packet finished at %d, through at %d (want injected first)", injPri, thruPri)
	}
	injNo, thruNo := run(0)
	if injNo <= thruNo {
		t.Fatalf("without priority, through packet should finish first (inj %d, thru %d)", injNo, thruNo)
	}
}

func TestStarvationGuardBoundsWait(t *testing.T) {
	// With a tiny starvation threshold, through traffic competing against
	// prioritised injection must still make progress.
	cfg := testConfig(t, func(c *Config) {
		c.PriorityLevels = 2
		c.StarvationLimit = 16
		c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
		c.Nodes[1] = NodeConfig{NI: NISplit, InjSpeedup: 4}
	})
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	thru := 0
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		if pkt.Src == 0 {
			thru++
		}
	})
	for c := 0; c < 3000; c++ {
		n.Inject(0, mkPacket(cfg, ReadReply, 3))
		n.Inject(1, mkPacket(cfg, ReadReply, 3))
		n.Step()
	}
	if thru < 20 {
		t.Fatalf("through traffic starved: only %d packets delivered", thru)
	}
}

// TestNonAtomicVCAllowsShortPacketSharing: with one VC per port, two
// single-flit packets sent back to back eject one cycle apart. Every hop
// grants the second packet the downstream VC the first still occupies (WPF
// [28]); atomic allocation would hold it until that VC had drained.
func TestNonAtomicVCAllowsShortPacketSharing(t *testing.T) {
	n := newTestNet(t, func(c *Config) { c.VCs = 1 })
	var ejected []int64
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) { ejected = append(ejected, now) })
	for c := 0; c < 2; c++ {
		if !n.Inject(0, mkPacket(n.Config(), ReadRequest, 3)) {
			t.Fatalf("cycle %d: inject refused", c)
		}
		n.Step()
	}
	runUntilIdle(t, n, 1000)
	if len(ejected) != 2 || ejected[1]-ejected[0] != 1 {
		t.Fatalf("ejection cycles %v, want two one cycle apart", ejected)
	}
}

func TestSplitQueueCapacityAtLeastBaseline(t *testing.T) {
	// §6.2 fairness: the split NI's total buffering must not be below the
	// configured single-queue size.
	cfg := ariConfig(t, NodeConfig{NI: NISplit})
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.NIQueueCapacityFlits(0), cfg.NIQueueFlits; got < want {
		t.Fatalf("split NI capacity %d < baseline %d", got, want)
	}
	if got := n.NIQueueCapacityFlits(1); got != cfg.NIQueueFlits {
		t.Fatalf("baseline NI capacity %d != %d", got, cfg.NIQueueFlits)
	}
}

func TestChoosePacketVCMaskAdaptive(t *testing.T) {
	m := Mesh{Width: 4, Height: 4}
	// Two productive dimensions: XY-preferred port carries the escape VC.
	cands := computeRoute(m, RouteMinAdaptive, 0, m.ID(2, 2), 4, nil)
	if len(cands) != 2 {
		t.Fatalf("adaptive candidates = %d, want 2", len(cands))
	}
	if int(cands[0].port) != int(East) {
		t.Fatalf("XY-preferred port = %d, want East", cands[0].port)
	}
	if cands[0].vcMask&1 == 0 {
		t.Fatal("escape VC missing from XY-preferred candidate")
	}
	if cands[1].vcMask&1 != 0 {
		t.Fatal("escape VC present on non-XY candidate")
	}
	// One dimension left: full mask.
	cands = computeRoute(m, RouteMinAdaptive, 0, 3, 4, nil)
	if len(cands) != 1 || cands[0].vcMask != maskAll(4) {
		t.Fatalf("single-dimension candidate wrong: %+v", cands)
	}
	// Arrived: ejection port.
	cands = computeRoute(m, RouteMinAdaptive, 5, 5, 4, nil)
	if len(cands) != 1 || int(cands[0].port) != ejectPortIndex {
		t.Fatalf("arrival candidate wrong: %+v", cands)
	}
}
