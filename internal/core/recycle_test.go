package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

func recycleConfig(sc Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = sc
	cfg.WarmupCycles, cfg.MeasureCycles = 150, 450
	return cfg
}

// drainPool empties the pool of closed simulators' systems: a pooled
// object survives one collection in the pool's victim cache, not two.
func drainPool() {
	runtime.GC()
	runtime.GC()
}

// oneP sets GOMAXPROCS to 1 for a test that asserts a system is reused and
// returns the restore, to be deferred. sync.Pool keeps a Put in the current
// P's private slot, which no other P can take: a goroutine that moved to
// another P between Close and the rebuild would find nothing to reuse. With
// one P it cannot move.
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

// replayer returns a trace.Replayer over a few records of every warp of k
// on cores cores, drawn from k's generator under seed.
func replayer(t *testing.T, k trace.Kernel, cores int, seed uint64) *trace.Replayer {
	t.Helper()
	gen, err := trace.NewGenerator(k, cores, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(gen, &buf, cores, k.WarpsPerCore)
	if err != nil {
		t.Fatal(err)
	}
	for range 4 {
		for c := range cores {
			for w := range k.WarpsPerCore {
				rec.NextCompute(c, w)
				rec.NextMem(c, w, nil)
			}
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := trace.NewReplayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// closeDirty leaves one closed system in the pool, dirty everywhere a rebuild
// for cfg (a 6x6 bfs run) reuses storage: two 8x8 simulators run on it in
// turn and are closed with packets in flight. The first runs kmeans'
// synthetic streams (bfs' warp count, other generator state) on cfg's kind of
// reply fabric; the second replays a hotspot trace (40 warps a core) over
// another kind: the mesh under an overlay scheme, else, by scheme, the
// DA2mesh overlay or the ideal fabric. It returns the second simulator,
// closed once.
func closeDirty(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	big := cfg
	big.MeshWidth, big.MeshHeight = 8, 8
	cores := big.MeshWidth*big.MeshHeight - big.NumMC
	other := big
	switch {
	case cfg.Scheme.Mechanisms().Overlay:
		other.Scheme = AdaARI
	case cfg.Scheme%2 == 0:
		other.Scheme = DA2MeshARI
	default:
		other.IdealReply = true
	}
	kmeans, err := trace.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	hotspot, err := trace.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	var sim *Simulator
	for _, d := range []struct {
		cfg Config
		k   trace.Kernel
		w   trace.Workload
	}{
		{big, kmeans, nil},
		{other, hotspot, replayer(t, hotspot, cores, 5)},
	} {
		if sim, err = NewSimulatorWorkload(d.cfg, d.k, d.w); err != nil {
			t.Fatal(err)
		}
		for range 300 {
			sim.Step()
		}
		if sim.RequestNet().InFlight() == 0 {
			t.Fatalf("%s/%s: the 8x8 simulator holds no packet when closed", d.k.Name, d.cfg.Scheme)
		}
		sim.Close()
	}
	return sim
}

// TestRecycledRunEqualsFresh holds a simulator rebuilt on a closed one's
// system to a fresh one's Result, for every scheme. The system comes from
// closeDirty, so every table a 6x6 bfs system reuses — fabrics, cores, L1s,
// MSHRs, MCs, L2s, DRAM channels and the generator — holds another run's
// state until its Init clears it. Invariants are checked every cycle of the
// recycled run.
func TestRecycledRunEqualsFresh(t *testing.T) {
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	defer oneP()()
	for sc := range Scheme(NumSchemes) {
		cfg := recycleConfig(sc)

		drainPool()
		var fresh *Simulator
		freshBytes := allocated(func() { fresh = mustSimulator(t, cfg, k) })
		want := mustRun(t, fresh)

		closeDirty(t, cfg)
		var sim *Simulator
		recycledBytes := allocated(func() { sim = mustSimulator(t, cfg, k) })
		if !raceEnabled && recycledBytes*10 > freshBytes {
			t.Fatalf("%s: the rebuild allocated %d B, the fresh build %d B: the closed system was not reused", sc, recycledBytes, freshBytes)
		}
		got, err := sim.RunChecked(CheckOptions{InvariantEvery: 1})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		sim.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a run on a closed system differs from a fresh run", sc)
		}
	}
}

// TestClosedSimulatorPanics: Close is a simulator's last use, so running or
// reading it afterwards panics with a message naming Close instead of
// touching a system another simulator may own.
func TestClosedSimulatorPanics(t *testing.T) {
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scheme{AdaARI, DA2MeshARI} {
		cfg := recycleConfig(sc)
		for name, use := range map[string]func(*Simulator){
			"Step":          func(s *Simulator) { s.Step() },
			"RunChecked":    func(s *Simulator) { s.RunChecked(CheckOptions{}) },
			"Cores":         func(s *Simulator) { s.Cores() },
			"MCs":           func(s *Simulator) { s.MCs() },
			"RequestNet":    func(s *Simulator) { s.RequestNet() },
			"ReplyNet":      func(s *Simulator) { s.ReplyNet() },
			"StateDumpJSON": func(s *Simulator) { s.StateDumpJSON() },
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

// TestDoubleCloseSharesNothing closes closeDirty's simulator a second time,
// then steps two simulators built after it in lockstep: were the second
// Close to hand the same system back again, the two would share it and
// their Results would not be a fresh run's.
func TestDoubleCloseSharesNothing(t *testing.T) {
	var ks [2]trace.Kernel
	for i, name := range []string{"bfs", "kmeans"} {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = k
	}
	defer oneP()()
	cfg := recycleConfig(AdaARI)
	var want [2]Result
	drainPool()
	for i, k := range ks {
		want[i] = mustRun(t, mustSimulator(t, cfg, k))
	}

	closeDirty(t, cfg).Close()

	var sims [2]*Simulator
	for i, k := range ks {
		sims[i] = mustSimulator(t, cfg, k)
	}
	if sims[0].system == sims[1].system {
		t.Fatal("two live simulators share one system")
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
			t.Errorf("%s: interleaved run after a double Close differs from a fresh run", ks[i].Name)
		}
		s.Close()
	}
}

// TestRecycledAcrossGoroutines builds, runs and closes simulators on
// several goroutines at once, as exp.Runner's workers do, so closed systems
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
	cfg := recycleConfig(AdaARI)
	drainPool()
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
