package core

import (
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

// calibrate sizes the speedup of kernel name from one run of cfg against the
// ideal reply fabric.
func calibrate(t *testing.T, cfg Config, name string) Calibration {
	t.Helper()
	k, _ := trace.ByName(name)
	cfg.IdealReply = true
	sim, err := NewSimulator(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, sim)
	return SizeSpeedup(cfg, res, sim.ReplyNet().(*noc.IdealFabric))
}

func TestCalibrateSpeedup(t *testing.T) {
	cfg := fastConfig(AdaBaseline)
	cals := map[string]Calibration{}
	for _, name := range []string{"bfs", "lavaMD"} {
		cal := calibrate(t, cfg, name)
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
		cals[name] = cal
	}
	// A memory-bound benchmark must demand more speedup than a
	// compute-bound one.
	if ch, cl := cals["bfs"], cals["lavaMD"]; ch.PeakRatePerMC <= cl.PeakRatePerMC {
		t.Fatalf("bfs peak rate %.4f not above lavaMD %.4f", ch.PeakRatePerMC, cl.PeakRatePerMC)
	}
}
