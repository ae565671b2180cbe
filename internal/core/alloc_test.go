package core

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

// TestStepDoesNotAllocate locks in the zero-allocation steady-state step,
// over every kind of reply fabric — the mesh, the ideal fabric and the
// DA2mesh overlay with and without ARI's NIs — and on the mesh under a
// burst-heavy kernel, whose cores mostly sleep: after a warmup long enough to
// grow every queue, freelist and scratch slice to its working size, Step
// must not allocate. The only tolerated residue is the amortised growth of
// the ideal fabric's per-node eq. (1) windows (IdealFabric.Windows, one
// append per 100 cycles per node), which stays far below the 0.01
// allocs/op bound; the mesh and DA2mesh keep no window series.
func TestStepDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is slow")
	}
	for _, tc := range []struct {
		name, kernel string
		scheme       Scheme
		ideal        bool
	}{
		{"Ada-ARI", "bfs", AdaARI, false},
		{"ideal-reply", "bfs", XYBaseline, true},
		{"DA2Mesh", "bfs", DA2MeshBase, false},
		{"DA2Mesh+ARI", "bfs", DA2MeshARI, false},
		{"Ada-ARI/lavaMD", "lavaMD", AdaARI, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, err := trace.ByName(tc.kernel)
			if err != nil {
				t.Fatal(err)
			}
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
// starvation check scans every packet both fabrics hold for the oldest.
// Each measured run is one poll window — 64 Steps, then the poll — on a
// saturated bfs system under each kind of reply fabric (mesh, DA2mesh,
// ideal), against a twin that steps the same windows without polling: the
// step path still grows a freelist now and then, identically in both, so
// any difference is the poll's.
func TestRunCheckedPollDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is slow")
	}
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	ideal := fastConfig(AdaARI)
	ideal.IdealReply = true
	for name, cfg := range map[string]Config{"mesh": fastConfig(AdaARI), "DA2Mesh": fastConfig(DA2MeshARI), "ideal": ideal} {
		t.Run(name, func(t *testing.T) {
			var sims [2]*Simulator
			for i := range sims {
				if sims[i], err = NewSimulator(cfg, k); err != nil {
					t.Fatal(err)
				}
			}
			w := newWatchdog(sims[0], CheckOptions{})
			window := func(s *Simulator, poll bool) func() {
				return func() {
					for i := int64(0); i < pollEvery; i++ {
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
			if sims[0].RequestNet().InFlight() == 0 || sims[0].ReplyNet().InFlight() == 0 {
				t.Fatal("a fabric holds nothing: the age scan has nothing to walk")
			}
			const polls = 16
			withPoll, without := testing.AllocsPerRun(polls, polled), testing.AllocsPerRun(polls, plain)
			if withPoll != without {
				t.Fatalf("a %d-cycle window allocated %.2f objects with the watchdog poll, %.2f without", pollEvery, withPoll, without)
			}
		})
	}
}

// TestNewSimulatorAllocBudget keeps construction cheap: it is most of a
// short job's setup time (serve-paths runs 50 ms jobs), and it was 12 380
// allocations — 80 % of them routers and flit rings — before the networks
// were slab-built. A fresh build makes 461 at the time of writing, and a
// rebuild of the system closed before it, as here, 44; the budget is about
// twice the fresh count, which a build under the race detector may pay (its
// sync.Pool drops Puts at random).
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
// *Packet and caches held a slice of 24-byte ways per set, and 0.77 MB with
// pointer-free 8-byte flits behind a packet table and flat tag/state and
// MSHR tables, and 0.63 MB with offset-addressed flit rings, index-linked
// NoC ports, one held-instruction slab per core and 16-byte warps. With NoC
// buffers that hold 4-byte packet handles instead of 8-byte flits, 8-byte
// staged flits and 32-byte VCs it is 0.54 MB (539 920 B) at the time of
// writing; the budget is 5 % above that. The builds are fresh: the pool of
// closed systems is drained first, and no build is closed.
func TestNewSimulatorByteBudget(t *testing.T) {
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = AdaARI
	const runs, budget = 10, 570_000
	drainPool()
	per := allocated(func() {
		for i := 0; i < runs; i++ {
			mustSimulator(t, cfg, k)
		}
	}) / runs
	if per > budget {
		t.Fatalf("a fresh NewSimulator allocates %d B; budget %d B", per, budget)
	}
}

// TestRecycledSimulatorByteBudget holds what a build costs after a
// same-shape simulator was closed: Close hands the whole system back and the
// build clears it in place, so it allocates only the simulator handle and
// the hooks that name the new run. That was 345 KB when only the meshes'
// slabs were reused, and 1 736 B at the time of writing; the budget is about
// twice that. Under the race detector sync.Pool drops Puts at random, so
// the test needs a build without it; it runs on one P (see oneP).
func TestRecycledSimulatorByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops closed systems at random under the race detector")
	}
	defer oneP()()
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = AdaARI
	const runs, budget = 10, 4_000
	mustSimulator(t, cfg, k).Close()
	per := allocated(func() {
		for i := 0; i < runs; i++ {
			mustSimulator(t, cfg, k).Close()
		}
	}) / runs
	if per > budget {
		t.Fatalf("NewSimulator after a Close allocates %d B; budget %d B", per, budget)
	}
}

// BenchmarkNewSimulator measures construction of the Table I system: the
// fixed cost of every run, and most of a short job's setup time. Every
// iteration closes its simulator, so every build but the first rebuilds the
// previous one's system in place.
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

// BenchmarkNewSimulatorBurst measures a job server's set-up burst, as the
// ledger's serve-paths workload times it: close the 48 simulators of its
// job list (8 light kernels x Ada-Baseline/Ada-ARI x 3 seeds), then build
// the 48 again. B/build is what one rebuild allocates and gc/burst the GC
// cycles a burst runs; a burst that rebuilds every closed system runs none.
func BenchmarkNewSimulatorBurst(b *testing.B) {
	type job struct {
		cfg Config
		k   trace.Kernel
	}
	var jobs []job
	for _, name := range []string{"sobolQRNG", "blackScholes", "monteCarlo", "quasirandomG", "matrixMul", "convolution", "fastWalsh", "mergeSort"} {
		k, err := trace.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, sc := range []Scheme{AdaBaseline, AdaARI} {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := DefaultConfig()
				cfg.Scheme, cfg.Seed = sc, seed
				jobs = append(jobs, job{cfg, k})
			}
		}
	}
	sims := make([]*Simulator, len(jobs))
	build := func() {
		for i, j := range jobs {
			sims[i] = mustSimulator(b, j.cfg, j.k)
		}
	}
	build()
	var before, after runtime.MemStats
	var bytes, gcs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sims {
			s.Close()
		}
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		gcs += uint64(after.NumGC - before.NumGC)
	}
	b.ReportMetric(float64(bytes)/float64(b.N*len(jobs)), "B/build")
	b.ReportMetric(float64(gcs)/float64(b.N), "gc/burst")
}

// BenchmarkSimulatorStepLowLoad steps the Table I system under Ada-ARI on
// lavaMD, a low-NoC-sensitivity kernel whose cores spend almost every tick
// in a compute burst, after the ledger's 4000-cycle warmup: the per-cycle
// fixed cost of every layer, with the cores asleep most of the time. It
// allocates nothing.
func BenchmarkSimulatorStepLowLoad(b *testing.B) {
	k, err := trace.ByName("lavaMD")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = AdaARI
	sim, err := NewSimulator(cfg, k)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}
