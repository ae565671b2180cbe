package core

import (
	"errors"
	"testing"

	"repro/internal/noc"
	"repro/internal/trace"
)

func TestIdealReplyFabricWiring(t *testing.T) {
	k, _ := trace.ByName("bfs")
	cfg := fastConfig(AdaBaseline)
	cfg.IdealReply = true
	sim, err := NewSimulator(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.ReplyNet().(*noc.IdealFabric); !ok {
		t.Fatalf("reply fabric is %T, want *noc.IdealFabric", sim.ReplyNet())
	}
	r := mustRun(t, sim)
	if r.Instructions == 0 || r.RepliesSent == 0 {
		t.Fatal("ideal-reply run made no progress")
	}
	// With unlimited reply bandwidth, MC data never stalls on the NI.
	if r.MCBlockedCycles != 0 {
		t.Fatalf("ideal fabric blocked %d cycles", r.MCBlockedCycles)
	}
}

func TestIdealBeatsRealNetwork(t *testing.T) {
	k, _ := trace.ByName("bfs")
	real := runBench(t, "bfs", fastConfig(AdaBaseline))
	cfg := fastConfig(AdaBaseline)
	cfg.IdealReply = true
	sim, err := NewSimulator(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	ideal := mustRun(t, sim)
	if ideal.IPC <= real.IPC {
		t.Fatalf("ideal reply fabric IPC %.3f not above real %.3f", ideal.IPC, real.IPC)
	}
}

func TestCalibrateSpeedup(t *testing.T) {
	cfg := fastConfig(AdaBaseline)
	for _, name := range []string{"bfs", "lavaMD"} {
		k, _ := trace.ByName(name)
		cal, err := CalibrateSpeedup(cfg, k, CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cal.Benchmark != name {
			t.Fatalf("calibration tagged %q", cal.Benchmark)
		}
		if cal.RequiredS < 1 || cal.ChosenS < 1 || cal.ChosenS > 4 {
			t.Fatalf("implausible sizing %+v", cal)
		}
		if cal.ChosenS > cal.RequiredS {
			t.Fatalf("chosen S %d exceeds required %d", cal.ChosenS, cal.RequiredS)
		}
		if cal.AvgFlitsPerPkt < 1 || cal.AvgFlitsPerPkt > 9 {
			t.Fatalf("avg flits per packet %v out of range", cal.AvgFlitsPerPkt)
		}
	}
	// A memory-bound benchmark must demand more speedup than a
	// compute-bound one.
	kHigh, _ := trace.ByName("bfs")
	kLow, _ := trace.ByName("lavaMD")
	ch, _ := CalibrateSpeedup(cfg, kHigh, CheckOptions{})
	cl, _ := CalibrateSpeedup(cfg, kLow, CheckOptions{})
	if ch.PeakRatePerMC <= cl.PeakRatePerMC {
		t.Fatalf("bfs peak rate %.4f not above lavaMD %.4f", ch.PeakRatePerMC, cl.PeakRatePerMC)
	}
}

// TestCalibrateSpeedupObeysInterrupt: the ideal-fabric run goes through the
// checked loop, so the harness's interrupt stops it.
func TestCalibrateSpeedupObeysInterrupt(t *testing.T) {
	k, _ := trace.ByName("bfs")
	_, err := CalibrateSpeedup(fastConfig(AdaBaseline), k, CheckOptions{Interrupt: func() bool { return true }})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}
