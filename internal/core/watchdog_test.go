package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/trace"
)

func testKernel(t *testing.T) trace.Kernel {
	t.Helper()
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// closeAllSinks closes the ejection sink of every node of the simulator's
// request network forever, replacing the MCs' own ingress gate: no request
// ever leaves the mesh, so once its buffers fill, flits are in flight with
// zero movement — a deadlock the watchdog must catch instead of spinning.
func closeAllSinks(s *Simulator) {
	s.RequestNet().SetSinkGate(func(int) bool { return false })
}

func TestWatchdogDetectsDeadlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 0
	// The deadlock trips within a few thousand cycles; a run that reaches
	// this horizon instead ends with no error and fails the test.
	cfg.MeasureCycles = 20_000
	sim, err := NewSimulator(cfg, testKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	closeAllSinks(sim)
	_, err = sim.RunChecked(CheckOptions{DeadlockCycles: 500, PacketAgeCap: -1})
	if err == nil {
		t.Fatal("deadlocked simulation returned no error")
	}
	var werr *WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("error is %T, want *WatchdogError: %v", err, err)
	}
	if werr.Kind != "deadlock" {
		t.Fatalf("kind = %q, want deadlock", werr.Kind)
	}
	if werr.Benchmark != "bfs" || werr.Scheme != cfg.Scheme {
		t.Fatalf("diagnostic names (%s, %s), want (bfs, %s)", werr.Benchmark, werr.Scheme, cfg.Scheme)
	}
	if werr.NoProgressFor < 500 {
		t.Fatalf("NoProgressFor = %d, want >= 500", werr.NoProgressFor)
	}
	if werr.ReqInFlight == 0 {
		t.Fatal("deadlock reported with nothing in flight")
	}
	// The dump is the /debug/nocstate document, indented, and carries the
	// stuck state: router VCs, the credit map, the ejectors the closed
	// sinks back up and the oldest packets.
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(werr.Dump)); err != nil {
		t.Fatalf("dump is not JSON: %v\n%.2000s", err, werr.Dump)
	}
	if !bytes.Equal(compact.Bytes(), sim.StateDumpJSON()) {
		t.Errorf("dump differs from StateDumpJSON:\n%.2000s", werr.Dump)
	}
	var dump struct{ Request noc.StateDump }
	if err := json.Unmarshal(compact.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	req := dump.Request
	var vcs, credits, ejecting int
	for _, r := range req.Routers {
		for _, ip := range r.Ins {
			vcs += len(ip.VCs)
		}
		for _, op := range r.Outs {
			credits += len(op.Credits)
		}
		if r.EjectorFlits > 0 {
			ejecting++
		}
	}
	if vcs == 0 || credits == 0 || ejecting == 0 || len(req.OldestPackets) == 0 {
		t.Errorf("request dump: %d busy VCs, %d credit counts, %d backed-up ejectors, %d oldest packets; want all > 0",
			vcs, credits, ejecting, len(req.OldestPackets))
	}
}

func TestWatchdogDetectsStarvation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 30
	sim, err := NewSimulator(cfg, testKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	closeAllSinks(sim)
	// Deadlock detection off, tight age cap on: the same stuck state must
	// now be reported as starvation (packets aging beyond the cap).
	_, err = sim.RunChecked(CheckOptions{DeadlockCycles: -1, PacketAgeCap: 400})
	var werr *WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("error is %T, want *WatchdogError: %v", err, err)
	}
	if werr.Kind != "starvation" {
		t.Fatalf("kind = %q, want starvation", werr.Kind)
	}
	if werr.OldestPacketAge <= 400 {
		t.Fatalf("OldestPacketAge = %d, want > 400", werr.OldestPacketAge)
	}
}

// TestRunCheckedMatchesRun pins that the watchdog is purely observational:
// on every kind of reply fabric, RunChecked and RunWorkChecked (with the
// invariant sweep on) produce the Result of the tests' plain run loop —
// plainRun over Step, no watchdog — at a fixed horizon, for a completed
// fixed-work run and for one clipped by its cycle guard.
func TestRunCheckedMatchesRun(t *testing.T) {
	// The watchdog walks both fabrics through noc.Fabric (invariants,
	// oldest age) and must only read.
	overlay, ideal := DefaultConfig(), DefaultConfig()
	overlay.Scheme = DA2MeshARI
	ideal.IdealReply = true
	opt := CheckOptions{InvariantEvery: 128}
	modes := []struct {
		name      string
		work      uint64 // 0 = fixed horizon
		maxCycles int64
		truncated bool
	}{
		{"horizon", 0, 0, false},
		{"work", 5000, 1 << 20, false},
		{"clipped", 1 << 60, 300, true},
	}
	for name, cfg := range map[string]Config{"mesh": DefaultConfig(), "DA2Mesh+ARI": overlay, "ideal": ideal} {
		t.Run(name, func(t *testing.T) {
			cfg.WarmupCycles = 200
			cfg.MeasureCycles = 600
			k := testKernel(t)
			build := func() *Simulator {
				sim, err := NewSimulator(cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				return sim
			}
			for _, m := range modes {
				ref := build()
				plain := ref.plainRun(ref.Step, m.work, m.maxCycles)

				var checked Result
				var err error
				if m.work == 0 {
					checked, err = build().RunChecked(opt)
				} else {
					checked, err = build().RunWorkChecked(m.work, m.maxCycles, opt)
				}
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if checked.Truncated != m.truncated {
					t.Fatalf("%s: Truncated = %v, want %v", m.name, checked.Truncated, m.truncated)
				}
				if !reflect.DeepEqual(plain, checked) {
					t.Fatalf("%s: checked run diverged from the plain loop:\n%+v\nvs\n%+v", m.name, plain, checked)
				}
			}
		})
	}
}

func TestRunWorkTruncatedFlag(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 500
	sim, err := NewSimulator(cfg, testKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	// An absurd instruction target with a tiny cycle guard must be clipped
	// and say so.
	r := mustRunWork(t, sim, math.MaxUint64, 200)
	if !r.Truncated {
		t.Fatal("clipped fixed-work run did not set Truncated")
	}
	if r.MeasuredCycles < 200 {
		t.Fatalf("MeasuredCycles = %d, want >= 200", r.MeasuredCycles)
	}

	sim2, err := NewSimulator(cfg, testKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	// A tiny target the cores retire quickly must not be marked truncated.
	r2 := mustRunWork(t, sim2, 1, 1<<20)
	if r2.Truncated {
		t.Fatal("completed fixed-work run marked Truncated")
	}
}

func TestRunCheckedInterrupt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 30
	sim, err := NewSimulator(cfg, testKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	_, err = sim.RunChecked(CheckOptions{Interrupt: func() bool {
		polls++
		return polls > 3
	}})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}
