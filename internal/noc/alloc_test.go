package noc

import (
	"reflect"
	"runtime"
	"testing"
)

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
			// Warm up into steady state: fills the packet freelist and grows
			// arrival/VC scratch slices to their high-water marks.
			for k := 0; k < 8000; k++ {
				iter()
			}
			if avg := testing.AllocsPerRun(2000, iter); avg != 0 {
				t.Fatalf("network step allocates %.2f times per iteration; want 0", avg)
			}
		})
	}
}

// TestNewNetworkAllocBudget keeps network construction slab-built and
// small: every router, port, VC, ring record and credit array is carved
// from a dozen per-network slabs (16 allocations at the time of writing,
// against ~5 100 when each was its own object), and NewSimulator builds two
// networks per run. Bytes are bounded beside the count: the loaded 6x6
// network cost 384 KB with 24-byte flits that held a *Packet, 205 KB with
// 8-byte flits, 172 KB with offset-addressed rings, index-linked ports and
// no ring at a mesh-edge port, 131 KB with buffers that hold 4-byte packet
// handles instead of flits, 8-byte staged flits and 32-byte VCs, and 121 KB
// (baseline and ARI alike) at the time of writing, with no fault horizons
// on ports and no retransmission state in NIs. The count's budget is about
// twice the figure, the bytes' 5 % above it.
func TestNewNetworkAllocBudget(t *testing.T) {
	for _, ari := range []bool{false, true} {
		cfg := benchLikeConfig(ari)
		build := func() {
			if _, err := NewNetwork(cfg); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(10, build); avg > 50 {
			t.Errorf("NewNetwork(ari=%v) allocates %.0f times; budget 50", ari, avg)
		}
		const runs, budget = 10, 127_000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
			t.Errorf("NewNetwork(ari=%v) allocates %d B; budget %d B", ari, per, budget)
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
	return cfg
}

// TestStorageLayout pins the per-flit and per-port storage: a buffer holds
// 4-byte packet handles, not flits, behind a 12-byte ring record; a flit
// is 8 bytes and so is a staged one, its port and VC a byte each; and no
// record a network's slabs hold has a pointer for the garbage collector to
// scan — rings name their storage by an offset into the handle slab and
// ports name their neighbours by node id. A route candidate is its port
// alone, so an input VC is 32 bytes, half a cache line; a port is 24
// (input and output).
func TestStorageLayout(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		size uintptr
	}{
		{"flit", reflect.TypeOf(flit{}), 8},
		{"stagedFlit", reflect.TypeOf(stagedFlit{}), 8},
		{"pktRing", reflect.TypeOf(pktRing{}), 12},
		{"inputVC", reflect.TypeOf(inputVC{}), 32},
		{"inputPort", reflect.TypeOf(inputPort{}), 24},
		{"outputPort", reflect.TypeOf(outputPort{}), 24},
		{"outVCState", reflect.TypeOf(outVCState{}), 8},
		{"switchPort", reflect.TypeOf(switchPort{}), 12},
	} {
		if c.typ.Size() != c.size {
			t.Errorf("%s is %d bytes, want %d", c.name, c.typ.Size(), c.size)
		}
		if hasPointers(c.typ) {
			t.Errorf("%s holds a pointer", c.name)
		}
	}
}

// hasPointers reports whether a value of type t holds anything the garbage
// collector scans.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	}
	return false
}
