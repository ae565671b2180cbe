package noc

import "testing"

// benchNet builds a loaded 6x6 reply-like network for stepping benchmarks.
func benchNet(b *testing.B, ari bool) *Network {
	b.Helper()
	mesh := Mesh{Width: 6, Height: 6}
	cfg := Config{
		Mesh:      mesh,
		VCs:       4,
		LinkBits:  128,
		DataBytes: 128,
		Routing:   RouteMinAdaptive,
	}
	if ari {
		cfg.MCNodes, cfg.MC = DiamondMCPlacement(mesh, 8), NodeConfig{NI: NISplit, InjSpeedup: 4}
		cfg.PriorityLevels = 2
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Recycle delivered packets so steady state allocates nothing.
	n.SetEjectHandler(func(_ int, pkt *Packet, _ int64) { n.PutPacket(pkt) })
	return n
}

// stepLoaded drives the network at a steady few-to-many load per iteration.
// Packet shells come from the network's freelist so the loop — and with it
// the whole stepping hot path — runs at zero allocations per iteration
// (locked by TestNetworkStepDoesNotAllocate).
func stepLoaded(b *testing.B, n *Network) {
	mcs := DiamondMCPlacement(n.Config().Mesh, 8)
	seed := uint64(1)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	cfg := n.Config()
	long := cfg.LongPacketFlits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := mcs[i%len(mcs)]
		pkt := n.GetPacket()
		pkt.Type = ReadReply
		pkt.Dst = next(36)
		pkt.Size = long
		if !n.Inject(mc, pkt) {
			n.PutPacket(pkt)
		}
		n.Step()
	}
}

func BenchmarkNetworkStepBaseline(b *testing.B) { stepLoaded(b, benchNet(b, false)) }
func BenchmarkNetworkStepARI(b *testing.B)      { stepLoaded(b, benchNet(b, true)) }

// benchEventNet builds the baseline 6x6 network for the low/medium-load
// stepping benchmarks.
func benchEventNet(b *testing.B) *Network {
	b.Helper()
	mesh := Mesh{Width: 6, Height: 6}
	n, err := NewNetwork(Config{
		Mesh:      mesh,
		VCs:       4,
		LinkBits:  128,
		DataBytes: 128,
		Routing:   RouteMinAdaptive,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Recycle delivered packets so steady state allocates nothing.
	n.SetEjectHandler(func(_ int, pkt *Packet, _ int64) { n.PutPacket(pkt) })
	return n
}

// stepAtLoad drives the network injecting one long packet every `period`
// cycles from rotating MC nodes: period 20 is the sparse traffic of
// low-sensitivity kernels, period 4 a medium reply load.
func stepAtLoad(b *testing.B, n *Network, period int) {
	mcs := DiamondMCPlacement(n.Config().Mesh, 8)
	seed := uint64(1)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	cfg := n.Config()
	long := cfg.LongPacketFlits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%period == 0 {
			pkt := n.GetPacket()
			pkt.Type = ReadReply
			pkt.Dst = next(36)
			pkt.Size = long
			if !n.Inject(mcs[(i/period)%len(mcs)], pkt) {
				n.PutPacket(pkt)
			}
		}
		n.Step()
	}
}

func BenchmarkNetworkStepEventLowLoad(b *testing.B) { stepAtLoad(b, benchEventNet(b), 20) }
func BenchmarkNetworkStepEventMedLoad(b *testing.B) { stepAtLoad(b, benchEventNet(b), 4) }

func BenchmarkRouteCompute(b *testing.B) {
	m := Mesh{Width: 8, Height: 8}
	var scratch []routeCandidate
	for i := 0; i < b.N; i++ {
		scratch = computeRoute(m, RouteMinAdaptive, i%64, (i*7)%64, scratch[:0])
	}
}

// BenchmarkPacketRing lands a long packet flit by flit in a VC-sized ring,
// as a router VC receives one, and drains it.
func BenchmarkPacketRing(b *testing.B) {
	var q pktRing
	slab := make([]uint32, 9)
	for i := 0; i < b.N; i++ {
		for s := 0; s < 9; s++ {
			q.push(slab, len(slab), flit{seq: uint16(s)})
		}
		for s := 0; s < 9; s++ {
			q.pop(slab, len(slab), 9)
		}
	}
}

// BenchmarkNetworkStepSinkBlocked steps request-like traffic — single-flit
// reads and long writes from the compute nodes — into MC nodes whose sink
// gate admits one packet every four cycles, so requests back up behind MC
// ingress as in the reply-saturated regime (§3). skips/step counts the
// waiting VCs the next VA pass leaves untried, measured over 1000 steps after
// the timed loop.
func BenchmarkNetworkStepSinkBlocked(b *testing.B) {
	mesh := Mesh{Width: 6, Height: 6}
	cfg := Config{Mesh: mesh, VCs: 4, LinkBits: 128, DataBytes: 128, Routing: RouteMinAdaptive}
	n, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mcs := DiamondMCPlacement(mesh, 8)
	open := make([]bool, mesh.Nodes())
	isMC := make([]bool, mesh.Nodes())
	var ccs []int
	for _, mc := range mcs {
		isMC[mc] = true
	}
	for id := range isMC {
		if !isMC[id] {
			ccs = append(ccs, id)
		}
	}
	n.SetSinkGate(func(node int) bool { return !isMC[node] || open[node] })
	n.SetEjectHandler(func(node int, pkt *Packet, _ int64) {
		open[node] = false
		n.PutPacket(pkt)
	})
	seed := uint64(1)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	long := cfg.LongPacketFlits()
	step := func(i int) {
		if i%4 == 0 {
			for _, mc := range mcs {
				open[mc] = true
			}
		}
		for k := 0; k < 4; k++ { // more than the gates admit
			pkt := n.GetPacket()
			pkt.Type, pkt.Size = ReadRequest, 1
			if next(3) == 0 {
				pkt.Type, pkt.Size = WriteRequest, long
			}
			pkt.Dst = mcs[next(len(mcs))]
			if !n.Inject(ccs[(4*i+k)%len(ccs)], pkt) {
				n.PutPacket(pkt)
			}
		}
		n.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	skips := 0
	for i := 0; i < 1000; i++ {
		for id := range n.routers {
			r := &n.routers[id]
			for g := range r.vcs {
				fresh := r.in[g/r.nvc].vaFresh&(1<<uint(g%r.nvc)) != 0
				if vc := &r.vcs[g]; vc.state == vcWaitVC && !fresh && (!r.vaRetry || !r.offered(vc)) {
					skips++
				}
			}
		}
		step(b.N + i)
	}
	b.ReportMetric(float64(skips)/1000, "skips/step")
}
