package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// The simulator layer's stepping reference. Simulator.Step skips the
// pipeline walk of a quiescent memory controller (SkipIdle only advances its
// DRAM clock); scanStep ticks every controller every cycle. The layers below
// hold their own references in their own tests — the NoC's scan step in
// internal/noc, the issue stage's scan tick in internal/gpu — and
// internal/simeq's TestMatrixDigests pins the composition across commits.

// scanStep is Step with every memory controller ticked, quiescent or not. It
// returns how many of its ticks went to a quiescent controller: the visits
// Step skips.
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
	if s.reqFault != nil {
		s.reqFault.Step(s.cycle)
	}
	s.reqNet.Step()
	if s.repFault != nil {
		s.repFault.Step(s.cycle)
	}
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

// TestMCSkipMatchesScan holds the quiescent-controller skip to the reference
// that ticks every controller: every suite kernel under every covered reply
// path must produce a byte-identical encoded Result, and the skip must have
// been taken.
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
