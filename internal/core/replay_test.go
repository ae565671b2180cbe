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
	a := mustRun(t, simA)
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
	b := mustRun(t, simB)

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
	plain := mustRun(t, simPlain)

	gen, _ := trace.NewGenerator(k, cores, cfg.Seed)
	var buf bytes.Buffer
	rec, _ := trace.NewRecorder(gen, &buf, cores, k.WarpsPerCore)
	simRec, err := NewSimulatorWorkload(cfg, k, rec)
	if err != nil {
		t.Fatal(err)
	}
	recorded := mustRun(t, simRec)

	if plain.Instructions != recorded.Instructions || plain.IPC != recorded.IPC {
		t.Fatalf("recorder perturbed the run: %d vs %d instructions",
			plain.Instructions, recorded.Instructions)
	}
}

// recordRun runs kernel k under cfg with a Recorder in the loop and returns
// the flushed trace.
func recordRun(t *testing.T, cfg Config, k trace.Kernel) []byte {
	t.Helper()
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
	sim, err := NewSimulatorWorkload(cfg, k, rec)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, sim)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tailRecords counts the memory instructions without transactions the
// workload hands out: a replayed trace's compute-only tail records.
type tailRecords struct {
	trace.Workload
	n int
}

func (d *tailRecords) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	write, addrs := d.Workload.NextMem(core, warp, scratch)
	if len(addrs) == 0 {
		d.n++
	}
	return write, addrs
}

// TestReplayTailRecordsUnderFullLSU replays a short saturating trace over
// several times its horizon, so every warp's stream wraps through its
// zero-address tail record, many of them while the LSU queue is full. There
// is nothing to hold: the core issues the record as compute whatever the
// queue's state and goes on to the warp's next record, and the run agrees
// with the reference that ticks every memory controller. (The issue stage's
// own reference, in internal/gpu, draws zero-address instructions too.)
func TestReplayTailRecordsUnderFullLSU(t *testing.T) {
	k, _ := trace.ByName("bfs")
	cfg := fastConfig(XYBaseline)
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 400
	raw := recordRun(t, cfg, k)

	cfg.MeasureCycles = 4000
	replay := func(scan bool) (Result, int) {
		rep, err := trace.NewReplayer(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		w := &tailRecords{Workload: rep}
		sim, err := NewSimulatorWorkload(cfg, k, w)
		if err != nil {
			t.Fatal(err)
		}
		if scan {
			res, _ := sim.scanRun(0, 0)
			return res, w.n
		}
		res, err := sim.RunChecked(CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res, w.n
	}
	got, tails := replay(false)
	want, _ := replay(true)
	// Each of the 28 x 48 warps has one tail record per pass over its stream.
	if tails < 2*28*k.WarpsPerCore {
		t.Fatalf("%d tail records replayed: the streams did not wrap twice, the test exercises nothing", tails)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay through tail records diverged from the reference:\n%+v\n%+v", got, want)
	}
}
