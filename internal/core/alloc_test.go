package core

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

// TestStepDoesNotAllocate locks in the zero-allocation steady-state step,
// over every kind of reply fabric — the mesh, the ideal fabric and the
// DA2mesh overlay with and without ARI's NIs: after a warmup long enough to
// grow every queue, freelist and scratch slice to its working size, Step
// must not allocate. The only tolerated residue is the amortised growth of
// the per-run InjWindows series (one append per 100 cycles per network),
// which stays far below the 0.01 allocs/op bound.
func TestStepDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is slow")
	}
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		scheme Scheme
		ideal  bool
	}{
		{"Ada-ARI", AdaARI, false},
		{"ideal-reply", XYBaseline, true},
		{"DA2Mesh", DA2MeshBase, false},
		{"DA2Mesh+ARI", DA2MeshARI, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Scheme, cfg.IdealReply = tc.scheme, tc.ideal
			sim, err := NewSimulator(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6000; i++ {
				sim.Step()
			}
			allocs := testing.AllocsPerRun(5000, func() { sim.Step() })
			if allocs > 0.01 {
				t.Fatalf("Step allocated %.4f objects/op in steady state, want ~0", allocs)
			}
		})
	}
}

// TestRunCheckedPollDoesNotAllocate extends the lock to the loop every real
// caller runs: RunChecked's default watchdog polls every 64 cycles, and its
// starvation check scans every buffered flit of both meshes for the oldest
// packet. Each measured run is one poll window — 64 Steps, then the poll —
// on a saturated bfs/Ada-ARI system, against a twin that steps the same
// windows without polling: the step path still grows a freelist now and
// then, identically in both, so any difference is the poll's.
func TestRunCheckedPollDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is slow")
	}
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = AdaARI
	var sims [2]*Simulator
	for i := range sims {
		if sims[i], err = NewSimulator(cfg, k); err != nil {
			t.Fatal(err)
		}
	}
	w := newWatchdog(sims[0], CheckOptions{})
	window := func(s *Simulator, poll bool) func() {
		return func() {
			for i := int64(0); i < w.opt.PollEvery; i++ {
				s.Step()
			}
			if poll {
				if err := w.poll(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	polled, plain := window(sims[0], true), window(sims[1], false)
	for i := 0; i < 100; i++ {
		polled()
		plain()
	}
	if sims[0].RequestNet().InFlight() == 0 {
		t.Fatal("nothing in flight: the age scan has nothing to walk")
	}
	const polls = 16
	withPoll, without := testing.AllocsPerRun(polls, polled), testing.AllocsPerRun(polls, plain)
	if withPoll != without {
		t.Fatalf("a %d-cycle window allocated %.2f objects with the watchdog poll, %.2f without", w.opt.PollEvery, withPoll, without)
	}
}

// TestNewSimulatorAllocBudget keeps construction cheap: it is most of a
// short job's setup time (serve-paths runs 50 ms jobs), and it was 12 380
// allocations — 80 % of them routers and flit rings — before the networks
// were slab-built. 510 at the time of writing; the budget is about twice
// that.
func TestNewSimulatorAllocBudget(t *testing.T) {
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = AdaARI
	avg := testing.AllocsPerRun(10, func() {
		sim, err := NewSimulator(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		sim.Close()
	})
	if avg > 900 {
		t.Fatalf("NewSimulator allocates %.0f times; budget 900", avg)
	}
}

// TestNewSimulatorByteBudget holds what one simulator costs to hold: the
// ledger keeps every job's simulator alive, so peak RSS moves one for one
// with these bytes. The Table I system cost 1.42 MB when flits carried a
// *Packet and caches held a slice of 24-byte ways per set; with pointer-free
// 8-byte flits behind a packet table and flat tag/state and MSHR tables it
// is 0.77 MB at the time of writing.
func TestNewSimulatorByteBudget(t *testing.T) {
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = AdaARI
	const runs, budget = 10, 850_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sim, err := NewSimulator(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		sim.Close()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("NewSimulator allocates %d B; budget %d B", per, budget)
	}
}

// BenchmarkNewSimulator measures construction of the Table I system: the
// fixed cost of every run, and most of a short job's setup time.
func BenchmarkNewSimulator(b *testing.B) {
	k, err := trace.ByName("bfs")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = AdaARI
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		sim.Close()
	}
}
