package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestRecordedTraceReplaysFaithfully runs a simulation while recording the
// workload, then replays the trace through a fresh simulator and checks the
// system-level outcome matches (the streams are identical, and the
// simulator is otherwise deterministic).
func TestRecordedTraceReplaysFaithfully(t *testing.T) {
	k, err := trace.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(XYBaseline)
	cores := cfg.MeshWidth*cfg.MeshHeight - cfg.NumMC

	gen, err := trace.NewGenerator(k, cores, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(gen, &buf, cores, k.WarpsPerCore)
	if err != nil {
		t.Fatal(err)
	}
	simA, err := NewSimulatorWorkload(cfg, k, rec)
	if err != nil {
		t.Fatal(err)
	}
	a := simA.Run()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Records() == 0 {
		t.Fatal("nothing recorded")
	}

	rep, err := trace.NewReplayer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	simB, err := NewSimulatorWorkload(cfg, k, rep)
	if err != nil {
		t.Fatal(err)
	}
	b := simB.Run()

	if a.Instructions != b.Instructions {
		t.Fatalf("replay diverged: %d vs %d instructions", a.Instructions, b.Instructions)
	}
	if a.Rep.MeshLinkFlits != b.Rep.MeshLinkFlits || a.MCStallTime != b.MCStallTime {
		t.Fatalf("replay diverged in network behaviour")
	}
}

// TestRecorderDoesNotPerturbRun: a run with a Recorder in the loop must be
// identical to a plain synthetic run (the recorder is a pure tee).
func TestRecorderDoesNotPerturbRun(t *testing.T) {
	k, _ := trace.ByName("bfs")
	cfg := fastConfig(AdaARI)
	cores := cfg.MeshWidth*cfg.MeshHeight - cfg.NumMC

	simPlain, err := NewSimulator(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	plain := simPlain.Run()

	gen, _ := trace.NewGenerator(k, cores, cfg.Seed)
	var buf bytes.Buffer
	rec, _ := trace.NewRecorder(gen, &buf, cores, k.WarpsPerCore)
	simRec, err := NewSimulatorWorkload(cfg, k, rec)
	if err != nil {
		t.Fatal(err)
	}
	recorded := simRec.Run()

	if plain.Instructions != recorded.Instructions || plain.IPC != recorded.IPC {
		t.Fatalf("recorder perturbed the run: %d vs %d instructions",
			plain.Instructions, recorded.Instructions)
	}
}

// degenerateSkips counts SkipMem calls that report an instruction without
// transactions: a replayed compute-only tail record met while the core's
// LSU queue was full.
type degenerateSkips struct {
	trace.Workload
	n int
}

func (d *degenerateSkips) SkipMem(core, warp int) bool {
	ok := d.Workload.SkipMem(core, warp)
	if !ok {
		d.n++
	}
	return ok
}

// TestReplayTailRecordsUnderFullLSU replays a short saturating trace over
// several times its horizon, so every warp's stream wraps through its
// zero-address tail record, many of them while the LSU queue is full. The
// core must then issue the record as compute, exactly as the scan reference
// does after drawing it with NextMem.
func TestReplayTailRecordsUnderFullLSU(t *testing.T) {
	k, _ := trace.ByName("bfs")
	cfg := fastConfig(XYBaseline)
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 400
	cores := cfg.MeshWidth*cfg.MeshHeight - cfg.NumMC

	gen, _ := trace.NewGenerator(k, cores, cfg.Seed)
	var buf bytes.Buffer
	rec, _ := trace.NewRecorder(gen, &buf, cores, k.WarpsPerCore)
	sim, err := NewSimulatorWorkload(cfg, k, rec)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	cfg.MeasureCycles = 4000
	replay := func(scan bool) (Result, int) {
		rep, err := trace.NewReplayer(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		w := &degenerateSkips{Workload: rep}
		sim, err := NewSimulatorWorkload(cfg, k, w)
		if err != nil {
			t.Fatal(err)
		}
		if scan {
			sim.UseScanReference()
		}
		return sim.Run(), w.n
	}
	got, degenerate := replay(false)
	want, _ := replay(true)
	if degenerate == 0 {
		t.Fatal("no tail record was reached with the LSU queue full; the test exercises nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay through tail records diverged from the scan reference:\n%+v\n%+v", got, want)
	}
}
