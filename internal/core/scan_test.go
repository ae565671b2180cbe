package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/trace"
)

// The simulator layer's stepping reference. Simulator.Step skips the ticks
// of a core sleeping through a compute burst, and ticks every memory
// controller, whose inert gate only advances an idle controller's DRAM
// clock; scanStep ticks every core every cycle. The layers below
// hold their own references in their own tests — the NoC's scan step in
// internal/noc, the issue stage's scan tick in internal/gpu — and
// internal/simeq's TestMatrixDigests pins the composition across commits.

// scanStep is Step with every core ticked, sleeping or not. It returns how
// many of its ticks went to a quiescent controller.
func (s *Simulator) scanStep() (quiet int) {
	coreTicks := s.coreClock.Tick()
	memTicks := s.memClock.Tick()
	for t := 0; t < coreTicks; t++ {
		for _, c := range s.cores {
			c.Tick()
		}
	}
	for _, mc := range s.mcs {
		if mc.Quiescent() {
			quiet++
		}
		mc.Tick(s.cycle, memTicks)
	}
	if s.measuring {
		s.coreCyclesMeasured += uint64(coreTicks)
	}
	s.reqNet.Step()
	s.repNet.Step()
	s.cycle++
	if s.sampleEvery > 0 && s.cycle%s.sampleEvery == 0 {
		s.sampler(s.cycle)
	}
	return quiet
}

// plainRun is the tests' reference run loop: step through warmup,
// resetStats, step through the measurement window — a fixed horizon when
// work is 0, else until the cores retire work instructions or maxCycles
// pass — and collect, with no watchdog. step is Step or scanStep.
func (s *Simulator) plainRun(step func(), work uint64, maxCycles int64) Result {
	for s.cycle < s.cfg.WarmupCycles {
		step()
	}
	s.resetStats()
	s.measuring = true
	start := s.cycle
	if work == 0 {
		maxCycles = s.cfg.MeasureCycles
	}
	for s.cycle-start < maxCycles && (work == 0 || s.retired() < work) {
		step()
	}
	s.measuring = false
	s.measuredCycles = s.cycle - start
	r := s.collect()
	r.Truncated = work > 0 && s.retired() < work
	return r
}

// scanRun is plainRun with every cycle stepped by scanStep. It also returns
// the ticks scanStep gave quiescent controllers.
func (s *Simulator) scanRun(work uint64, maxCycles int64) (r Result, quiet int) {
	r = s.plainRun(func() { quiet += s.scanStep() }, work, maxCycles)
	return r, quiet
}

// scanVariants are the reply paths the reference runs cover: the enhanced
// baseline, ARI on adaptive routing, the ideal reply fabric and the DA2mesh
// overlay.
var scanVariants = []struct {
	name   string
	scheme Scheme
	ideal  bool
}{
	{"baseline", XYBaseline, false},
	{"ari", AdaARI, false},
	{"ideal", XYBaseline, true},
	{"da2mesh", DA2MeshBase, false},
}

// matchScan builds two simulators for (cfg, k), runs one with run and the
// other with scanRun(work, maxCycles), and fails unless their JSON-encoded
// Results are byte-equal. It returns the quiescent-controller ticks.
func matchScan(t *testing.T, cfg Config, k trace.Kernel, run func(*Simulator) (Result, error), work uint64, maxCycles int64) int {
	t.Helper()
	build := func() *Simulator {
		sim, err := NewSimulator(cfg, k)
		if err != nil {
			t.Fatalf("build %s/%s: %v", k.Name, cfg.Scheme, err)
		}
		return sim
	}
	want, quiet := build().scanRun(work, maxCycles)
	got, err := run(build())
	if err != nil {
		t.Fatalf("run %s/%s: %v", k.Name, cfg.Scheme, err)
	}
	a, errA := json.Marshal(got)
	b, errB := json.Marshal(want)
	if errA != nil || errB != nil {
		t.Fatalf("encode %s/%s: %v, %v", k.Name, cfg.Scheme, errA, errB)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s/%s (ideal %v): result differs from the every-controller reference\n got %s\nwant %s",
			k.Name, cfg.Scheme, cfg.IdealReply, a, b)
	}
	return quiet
}

// TestMCSkipMatchesScan holds Step to the reference on quiescent
// controllers, which both tick through Tick's inert gate: every suite kernel
// under every covered reply path must produce a byte-identical encoded
// Result, and some controller must have been quiescent.
func TestMCSkipMatchesScan(t *testing.T) {
	for _, v := range scanVariants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			quiet := 0
			for _, k := range trace.Suite() {
				cfg := DefaultConfig()
				cfg.WarmupCycles, cfg.MeasureCycles = 300, 700
				cfg.Scheme, cfg.IdealReply = v.scheme, v.ideal
				quiet += matchScan(t, cfg, k, func(s *Simulator) (Result, error) { return s.RunChecked(CheckOptions{}) }, 0, 0)
			}
			if quiet == 0 {
				t.Fatal("no controller was ever quiescent: the skip was never taken")
			}
		})
	}
}

// TestMCSkipMatchesScanFixedWork repeats the comparison on the fixed-work
// entry point, whose stop condition reads the cores' instruction counters
// every cycle.
func TestMCSkipMatchesScanFixedWork(t *testing.T) {
	for _, name := range []string{"bfs", "lud", "blackScholes"} {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range scanVariants {
			cfg := DefaultConfig()
			cfg.WarmupCycles, cfg.MeasureCycles = 300, 700
			cfg.Scheme, cfg.IdealReply = v.scheme, v.ideal
			matchScan(t, cfg, k, func(s *Simulator) (Result, error) {
				return s.RunWorkChecked(20000, 2000, CheckOptions{})
			}, 20000, 2000)
		}
	}
}

// TestSleepingCoresMatchScan holds the sleeping cores to scanStep, which
// ticks every core. Twin simulators, one stepped by Step and one by
// scanStep, each with a sampler that logs every core's counters, run the
// low-load kernels and a saturated one in lockstep under a fixed horizon and
// under fixed work. After every cycle, across the warmup reset, every core's
// counters with its slept ticks applied must equal the reference's, and a
// sleeping core's wake must be the tick its burst ends. The sampler logs and
// the encoded Results must match too: they read the counters through the
// settles before the sampler and in collect, and fixed work through the one
// in retired.
func TestSleepingCoresMatchScan(t *testing.T) {
	for _, name := range []string{"lavaMD", "nn", "binomialOptions", "bfs"} {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, work := range []uint64{0, 30000} {
			cfg := DefaultConfig()
			cfg.Scheme = AdaARI
			cfg.WarmupCycles, cfg.MeasureCycles = 400, 1200
			var sims [2]*Simulator
			var logs [2][]uint64
			for i := range sims {
				s, err := NewSimulator(cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				// 37 divides neither horizon, so collect's settle is not
				// preceded by the sampler's in the same cycle.
				s.SetSampler(37, func(int64) {
					for _, c := range s.cores {
						logs[i] = append(logs[i], c.Instructions, c.CoreCycles)
					}
				})
				sims[i] = s
			}
			live, ref := sims[0], sims[1]
			slept := 0
			step := func() {
				live.Step()
				ref.scanStep()
				slept += matchSleepingCores(t, live, ref)
			}
			for live.cycle < cfg.WarmupCycles {
				step()
			}
			for _, s := range sims {
				s.resetStats()
				s.measuring = true
			}
			matchSleepingCores(t, live, ref)
			start, horizon := live.cycle, cfg.MeasureCycles
			if work > 0 {
				horizon = 2000
			}
			for live.cycle-start < horizon && (work == 0 || live.retired() < work) {
				if work > 0 && live.retired() != ref.retired() {
					t.Fatalf("%s cycle %d: retired %d, reference %d", name, live.cycle, live.retired(), ref.retired())
				}
				step()
			}
			for _, s := range sims {
				s.measuring = false
				s.measuredCycles = s.cycle - start
			}
			a, errA := json.Marshal(live.collect())
			b, errB := json.Marshal(ref.collect())
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s work %d: result differs from the every-core reference\n got %s\nwant %s", name, work, a, b)
			}
			if !slices.Equal(logs[0], logs[1]) {
				t.Fatalf("%s work %d: sampler read different core counters than the reference's", name, work)
			}
			if slept == 0 {
				t.Fatalf("%s work %d: no core ever slept", name, work)
			}
		}
	}
}

// matchSleepingCores fails unless every core of live, with the ticks it has
// slept applied, has the counters and burst of ref's twin, and every
// sleeping core wakes when its burst ends (an awake core has none). It reads
// only, so the settles under test stay the only ones, and returns how many
// cores sleep.
func matchSleepingCores(t *testing.T, live, ref *Simulator) (sleeping int) {
	t.Helper()
	now := live.coreClock.Cycles()
	for i, c := range live.cores {
		var pending uint64
		if sl := live.sleep[i]; sl.wake != notAsleep {
			sleeping++
			pending = now - sl.settled
			if left := uint64(c.Burst()) - pending; sl.wake != now+left {
				t.Fatalf("cycle %d: core %d wakes at tick %d, its burst ends at %d", live.cycle, i, sl.wake, now+left)
			}
		} else if c.Burst() != 0 {
			t.Fatalf("cycle %d: core %d is awake with a %d-tick burst", live.cycle, i, c.Burst())
		}
		r := ref.cores[i]
		got := [...]uint64{c.CoreCycles + pending, c.Instructions + pending, uint64(c.Burst()) - pending,
			c.MemInstrs, c.LoadTxns, c.StoreTxns, c.IssueStalls, c.LSUSendStalls, c.MSHRStalls, c.StoreQStalls}
		want := [...]uint64{r.CoreCycles, r.Instructions, uint64(r.Burst()),
			r.MemInstrs, r.LoadTxns, r.StoreTxns, r.IssueStalls, r.LSUSendStalls, r.MSHRStalls, r.StoreQStalls}
		if got != want {
			t.Fatalf("cycle %d: core %d counters %v, reference %v", live.cycle, i, got, want)
		}
	}
	return sleeping
}
