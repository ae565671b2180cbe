package core

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/noc"
	"repro/internal/trace"
)

// recycleFaults are the fault settings the recycling tests run under:
// none, corruption with link deaths (the recovery layer and the up*/down*
// table on), and the chaos soak's mix.
var recycleFaults = []struct {
	name  string
	fault noc.FaultConfig
}{
	{"none", noc.FaultConfig{}},
	{"corrupt+death", noc.FaultConfig{Seed: 7, CorruptProb: 0.05, LinkDeathProb: 0.005}},
	{"chaos", noc.ChaosFaults(7)},
}

func recycleConfig(sc Scheme, f noc.FaultConfig) Config {
	cfg := DefaultConfig()
	cfg.Scheme, cfg.Fault = sc, f
	cfg.WarmupCycles, cfg.MeasureCycles = 150, 450
	return cfg
}

// drainSlabPool empties the NoC's pool of released slabs: a pooled object
// survives one collection in the pool's victim cache, not two.
func drainSlabPool() {
	runtime.GC()
	runtime.GC()
}

// oneP sets GOMAXPROCS to 1 for a test that asserts slab reuse and returns
// the restore, to be deferred. sync.Pool keeps a Put in the current P's
// private slot, which no other P can take: a DA2mesh scheme releases one
// mesh, so its one slab sits there, and a goroutine that moved to another P
// between Close and the rebuild would find nothing to reuse. With one P it
// cannot move.
func oneP() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func mustSimulator(t testing.TB, cfg Config, k trace.Kernel) *Simulator {
	t.Helper()
	sim, err := NewSimulator(cfg, k)
	if err != nil {
		t.Fatalf("%s/%s: %v", k.Name, cfg.Scheme, err)
	}
	return sim
}

// TestRecycledRunEqualsFresh holds a simulator built on a closed one's NoC
// storage to a fresh one's Result, for every scheme under every fault
// setting. The storage comes from a larger (8x8) simulator closed with
// packets in flight, faults drawn and links dead, so every slab a 6x6
// network carves holds stale state until it is cleared. Invariants are
// checked every cycle of the recycled run.
func TestRecycledRunEqualsFresh(t *testing.T) {
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	defer oneP()()
	for _, fc := range recycleFaults {
		for sc := range Scheme(NumSchemes) {
			cfg := recycleConfig(sc, fc.fault)
			name := fc.name + "/" + sc.String()

			drainSlabPool()
			var fresh *Simulator
			freshBytes := allocated(func() { fresh = mustSimulator(t, cfg, k) })
			want := mustRun(t, fresh)

			big := cfg
			big.MeshWidth, big.MeshHeight = 8, 8
			dirty := mustSimulator(t, big, k)
			for range 300 {
				dirty.Step()
			}
			if dirty.reqNet.InFlight() == 0 {
				t.Fatalf("%s: the 8x8 simulator holds no packet when closed", name)
			}
			dirty.Close()

			var sim *Simulator
			recycledBytes := allocated(func() { sim = mustSimulator(t, cfg, k) })
			if !raceEnabled && recycledBytes+64_000 > freshBytes {
				t.Fatalf("%s: the recycled build allocated %d B, the fresh one %d B: no slab was reused", name, recycledBytes, freshBytes)
			}
			got, err := sim.RunChecked(CheckOptions{InvariantEvery: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sim.Close()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: a run on recycled storage differs from a fresh run", name)
			}
		}
	}
}

// TestClosedSimulatorPanics: Close is a simulator's last use, so stepping
// or running it afterwards panics with a message naming Close instead of
// touching storage another simulator may own.
func TestClosedSimulatorPanics(t *testing.T) {
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scheme{AdaARI, DA2MeshARI} {
		cfg := recycleConfig(sc, noc.FaultConfig{})
		for name, use := range map[string]func(*Simulator){
			"Step":       func(s *Simulator) { s.Step() },
			"RunChecked": func(s *Simulator) { s.RunChecked(CheckOptions{}) },
		} {
			sim := mustSimulator(t, cfg, k)
			sim.Step()
			sim.Close()
			func() {
				defer func() {
					p := recover()
					if msg, _ := p.(string); !strings.Contains(msg, "Close") {
						t.Errorf("%s: %s after Close panicked with %v, want a message naming Close", sc, name, p)
					}
				}()
				use(sim)
			}()
		}
	}
}

// TestDoubleCloseSharesNothing closes a simulator twice, then steps two
// simulators built after it in lockstep: were the second Close to hand the
// same storage back again, the two would share buffers and their Results
// would not be a fresh run's.
func TestDoubleCloseSharesNothing(t *testing.T) {
	var ks [2]trace.Kernel
	for i, name := range []string{"bfs", "kmeans"} {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = k
	}
	for _, fc := range recycleFaults {
		cfg := recycleConfig(AdaARI, fc.fault)
		var want [2]Result
		drainSlabPool()
		for i, k := range ks {
			want[i] = mustRun(t, mustSimulator(t, cfg, k))
		}

		closed := mustSimulator(t, cfg, ks[0])
		for range 200 {
			closed.Step()
		}
		closed.Close()
		closed.Close()

		var sims [2]*Simulator
		for i, k := range ks {
			sims[i] = mustSimulator(t, cfg, k)
		}
		for c := int64(0); c < cfg.WarmupCycles; c++ {
			sims[0].Step()
			sims[1].Step()
		}
		for _, s := range sims {
			s.resetStats()
			s.measuring = true
		}
		for c := int64(0); c < cfg.MeasureCycles; c++ {
			sims[0].Step()
			sims[1].Step()
		}
		for i, s := range sims {
			s.measuring = false
			s.measuredCycles = cfg.MeasureCycles
			if got := s.collect(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s/%s: interleaved run after a double Close differs from a fresh run", fc.name, ks[i].Name)
			}
			s.Close()
		}
	}
}

// TestRecycledAcrossGoroutines builds, runs and closes simulators on
// several goroutines at once, as exp.Runner's workers do, so released slabs
// move between goroutines through the pool: every run must still be its
// kernel's fresh Result.
func TestRecycledAcrossGoroutines(t *testing.T) {
	var ks []trace.Kernel
	for _, name := range []string{"bfs", "kmeans", "histogram", "lavaMD"} {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	cfg := recycleConfig(AdaARI, recycleFaults[1].fault)
	drainSlabPool()
	want := make([]Result, len(ks))
	for i, k := range ks {
		want[i] = mustRun(t, mustSimulator(t, cfg, k))
	}
	var wg sync.WaitGroup
	for g := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				i := (g + round) % len(ks)
				sim, err := NewSimulator(cfg, ks[i])
				if err != nil {
					t.Error(err)
					return
				}
				got, err := sim.RunChecked(CheckOptions{})
				sim.Close()
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s on goroutine %d, round %d: a recycled run differs from a fresh one", ks[i].Name, g, round)
				}
			}
		}()
	}
	wg.Wait()
}
