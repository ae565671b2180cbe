package noc

import "testing"

// benchNet builds a loaded 6x6 reply-like network for stepping benchmarks.
func benchNet(b *testing.B, ari bool) *Network {
	b.Helper()
	mesh := Mesh{Width: 6, Height: 6}
	cfg := Config{
		Mesh:        mesh,
		VCs:         4,
		LinkBits:    128,
		DataBytes:   128,
		Routing:     RouteMinAdaptive,
		NonAtomicVC: true,
	}
	if ari {
		cfg.Nodes = make([]NodeConfig, mesh.Nodes())
		for _, n := range DiamondMCPlacement(mesh, 8) {
			cfg.Nodes[n] = NodeConfig{NI: NISplit, InjSpeedup: 4}
		}
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

// BenchmarkNetworkStepFaulty prices the recovery protocol layer in the hot
// stepping path: the ARI network with retransmission buffers on, one dead
// link (so every route goes through the fault table) and a rolling
// corruption window that keeps CRC drops, NACK/ACK sideband traffic and
// retransmissions live throughout. Drives CorruptLink/KillLink directly —
// internal/fault would be an import cycle from this package.
func BenchmarkNetworkStepFaulty(b *testing.B) {
	mesh := Mesh{Width: 6, Height: 6}
	cfg := Config{
		Mesh:           mesh,
		VCs:            4,
		LinkBits:       128,
		DataBytes:      128,
		Routing:        RouteMinAdaptive,
		NonAtomicVC:    true,
		RetransBufPkts: 8,
		PriorityLevels: 2,
	}
	cfg.Nodes = make([]NodeConfig, mesh.Nodes())
	for _, n := range DiamondMCPlacement(mesh, 8) {
		cfg.Nodes[n] = NodeConfig{NI: NISplit, InjSpeedup: 4}
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n.SetEjectHandler(func(int, *Packet, int64) {})
	if !n.KillLink(14, int(East)) {
		b.Fatal("kill refused")
	}

	mcs := DiamondMCPlacement(mesh, 8)
	seed := uint64(1)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	long := cfg.LongPacketFlits()
	var id uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			// Re-arm a short corruption window on a rotating mesh link.
			n.CorruptLink(next(36), next(NumDirections), n.Now()+8)
		}
		id++
		pkt := &Packet{ID: id, Type: ReadReply, Dst: next(36), Size: long}
		pkt.Check = PacketCheck(pkt)
		n.Inject(mcs[i%len(mcs)], pkt)
		n.Step()
	}
}

// benchEventNet builds the baseline 6x6 network for the low/medium-load
// stepping benchmarks.
func benchEventNet(b *testing.B) *Network {
	b.Helper()
	mesh := Mesh{Width: 6, Height: 6}
	n, err := NewNetwork(Config{
		Mesh:        mesh,
		VCs:         4,
		LinkBits:    128,
		DataBytes:   128,
		Routing:     RouteMinAdaptive,
		NonAtomicVC: true,
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
		scratch = computeRoute(m, RouteMinAdaptive, i%64, (i*7)%64, 4, scratch[:0])
	}
}

func BenchmarkFlitQueue(b *testing.B) {
	q := flitQueue{buf: make([]flit, 9)}
	for i := 0; i < b.N; i++ {
		q.pushPacket(0, 9)
		for s := 0; s < 9; s++ {
			q.pop()
		}
	}
}
