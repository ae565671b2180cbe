package noc

import "testing"

// TestNetworkStepDoesNotAllocate locks the stepping hot path at zero
// allocations per inject+step iteration once steady state is reached — the
// invariant behind the 0 allocs/op figures of BenchmarkNetworkStepBaseline
// and BenchmarkNetworkStepARI. A regression here (a packet shell escaping
// the freelist, a per-cycle slice rebuilt instead of reused) shows up as a
// hard failure rather than a silently drifting benchmark number.
func TestNetworkStepDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		ari  bool
	}{
		{"Baseline", false},
		{"ARI", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newBenchLikeNet(t, tc.ari)
			mcs := DiamondMCPlacement(n.Config().Mesh, 8)
			seed := uint64(1)
			next := func(mod int) int {
				seed = seed*6364136223846793005 + 1442695040888963407
				return int(seed>>33) % mod
			}
			cfg := n.Config()
			long := cfg.LongPacketFlits()
			i := 0
			iter := func() {
				pkt := n.GetPacket()
				pkt.Type = ReadReply
				pkt.Dst = next(36)
				pkt.Size = long
				if !n.Inject(mcs[i%len(mcs)], pkt) {
					n.PutPacket(pkt)
				}
				i++
				n.Step()
			}
			// Warm up into steady state: fills the packet freelist, grows
			// arrival/VC scratch slices to their high-water marks, and builds
			// InjWindows capacity beyond what the measured run appends.
			for k := 0; k < 8000; k++ {
				iter()
			}
			// Keep InjWindows capacity but drop its length so the measured
			// appends land in already-allocated space.
			n.ResetStats()
			if avg := testing.AllocsPerRun(2000, iter); avg != 0 {
				t.Fatalf("network step allocates %.2f times per iteration; want 0", avg)
			}
		})
	}
}

// TestNewNetworkAllocBudget keeps network construction slab-built: every
// router, port, VC, flit ring and credit array is carved from a dozen
// per-network slabs (23 allocations at the time of writing, against ~5 100
// when each was its own object), and NewSimulator builds two networks per
// run. The budget is about twice the achieved count.
func TestNewNetworkAllocBudget(t *testing.T) {
	for _, ari := range []bool{false, true} {
		cfg := benchLikeConfig(ari)
		avg := testing.AllocsPerRun(10, func() {
			if _, err := NewNetwork(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 50 {
			t.Errorf("NewNetwork(ari=%v) allocates %.0f times; budget 50", ari, avg)
		}
	}
}

// newBenchLikeNet mirrors benchNet for tests: the loaded 6x6 reply network,
// optionally with the ARI split-NI configuration.
func newBenchLikeNet(t *testing.T, ari bool) *Network {
	t.Helper()
	n, err := NewNetwork(benchLikeConfig(ari))
	if err != nil {
		t.Fatal(err)
	}
	n.SetEjectHandler(func(_ int, pkt *Packet, _ int64) { n.PutPacket(pkt) })
	return n
}

func benchLikeConfig(ari bool) Config {
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
	return cfg
}
