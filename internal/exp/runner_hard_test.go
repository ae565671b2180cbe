package exp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/trace"
)

// badConfig returns a config that fails core validation, for exercising the
// failure paths without touching the simulator.
func badConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.MeshWidth = 0
	cfg.Seed = seed
	return cfg
}

func TestRunAllFailFast(t *testing.T) {
	r := tinyRunner(t)
	r.Workers = 1
	// Eight distinct invalid jobs: with one worker and fail-fast dispatch,
	// the sweep must stop long before all eight are attempted.
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{Cfg: badConfig(uint64(i)), Kernel: r.Benchmarks[0]})
	}
	_, err := r.RunAll(jobs)
	if err == nil {
		t.Fatal("invalid jobs returned no error")
	}
	if !strings.Contains(err.Error(), r.Benchmarks[0].Name) {
		t.Errorf("error does not name the benchmark: %v", err)
	}
	// errors.Join exposes the collected failures via Unwrap() []error.
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("error is %T, not a joined error: %v", err, err)
	}
	// At most the in-flight job plus one already handed to the worker can
	// fail after the first failure closes dispatch.
	if n := len(joined.Unwrap()); n >= len(jobs) {
		t.Errorf("dispatch did not stop on failure: %d of %d jobs ran", n, len(jobs))
	}
	if r.Runs() != 0 {
		t.Errorf("runs = %d, want 0", r.Runs())
	}
}

func TestRunAllJoinsAllWorkerErrors(t *testing.T) {
	r := tinyRunner(t)
	r.Workers = 4
	// Four invalid jobs, four workers: dispatch can hand every job out
	// before the first failure reports, so all failures must come back.
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, Job{Cfg: badConfig(uint64(100 + i)), Kernel: r.Benchmarks[i%len(r.Benchmarks)]})
	}
	_, err := r.RunAll(jobs)
	if err == nil {
		t.Fatal("invalid jobs returned no error")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("error is %T, not a joined error: %v", err, err)
	}
	if n := len(joined.Unwrap()); n == 0 {
		t.Fatal("joined error holds no failures")
	}
}

func TestRunAllRecoversPanic(t *testing.T) {
	orig := newSimulator
	defer func() { newSimulator = orig }()
	newSimulator = func(cfg core.Config, k trace.Kernel) (*core.Simulator, error) {
		panic("injected test panic")
	}

	r := tinyRunner(t)
	_, err := r.Run(r.withScheme(core.XYBaseline), r.Benchmarks[0])
	if err == nil {
		t.Fatal("panicking run returned no error")
	}
	for _, want := range []string{"panic", "injected test panic", r.Benchmarks[0].Name, core.XYBaseline.String()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("recovered error missing %q: %v", want, err)
		}
	}
}

func TestRunAllContextCancel(t *testing.T) {
	r := tinyRunner(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RunAllContext(ctx, []Job{{Cfg: r.withScheme(core.XYBaseline), Kernel: r.Benchmarks[0]}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunTimeout(t *testing.T) {
	r := tinyRunner(t)
	r.Base.MeasureCycles = 1 << 30 // would run for hours
	r.RunTimeout = 20 * time.Millisecond
	_, err := r.Run(r.withScheme(core.XYBaseline), r.Benchmarks[0])
	if err == nil {
		t.Fatal("over-budget run returned no error")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a timeout error", err)
	}
}

// TestSizingObeysRunTimeout: the §4.2 calibration runs are runs of the
// harness too, so RunTimeout bounds them.
func TestSizingObeysRunTimeout(t *testing.T) {
	r := tinyRunner(t)
	r.Base.MeasureCycles = 1 << 30 // would run for hours
	r.RunTimeout = 20 * time.Millisecond
	_, err := SpeedupSizing(r)
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("err = %v, want ErrRunTimeout", err)
	}
}

// TestSizingRunsThroughRunner: the §4.2 calibration runs are Runner jobs,
// so they are counted and a panicking one fails the figure with an error
// naming the run instead of killing the process.
func TestSizingRunsThroughRunner(t *testing.T) {
	r := tinyRunner(t)
	if _, err := SpeedupSizing(r); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Runs(), len(r.Benchmarks); got != want {
		t.Errorf("sizing ran %d simulations, want %d", got, want)
	}

	orig := newSimulator
	defer func() { newSimulator = orig }()
	newSimulator = func(cfg core.Config, k trace.Kernel) (*core.Simulator, error) {
		if k.Name == "lavaMD" {
			panic("injected test panic")
		}
		return orig(cfg, k)
	}
	_, err := SpeedupSizing(tinyRunner(t))
	if err == nil {
		t.Fatal("panicking calibration run returned no error")
	}
	for _, want := range []string{"injected test panic", "lavaMD/" + core.AdaBaseline.String()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

// TestSizingObeysCancelledContext: cancelling the figure's context stops its
// calibration runs like any other dispatch.
func TestSizingObeysCancelledContext(t *testing.T) {
	r := tinyRunner(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := speedupSizing(ctx, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Runs() != 0 {
		t.Errorf("runs = %d after a cancelled sizing, want 0", r.Runs())
	}
}

// TestObservedJobRunsDespiteStoredKey: the store answers no observed job — it
// is simulated, observed and counted, and its Result is the stored one.
func TestObservedJobRunsDespiteStoredKey(t *testing.T) {
	r := tinyRunner(t)
	cfg, k := r.withScheme(core.AdaARI), r.Benchmarks[0]
	want, err := r.Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	got, err := r.RunAll([]Job{{Cfg: cfg, Kernel: k, Observe: func(*core.Simulator) { observed++ }}})
	if err != nil {
		t.Fatal(err)
	}
	if observed != 1 {
		t.Errorf("observer called %d times, want 1", observed)
	}
	if r.Runs() != 2 || r.StoreHits() != 0 {
		t.Errorf("runs = %d, store hits = %d; want 2 and 0", r.Runs(), r.StoreHits())
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Error("observed run's Result differs from the stored one")
	}
}

// TestObservedJobKeepsItsNetwork: the Runner does not close an observed
// job's simulator, because its observer may keep a fabric, so the storage
// of a network it kept is never handed to a later job. Its state after the
// later jobs must be the state it finished in.
func TestObservedJobKeepsItsNetwork(t *testing.T) {
	r := tinyRunner(t)
	cfg, k := r.withScheme(core.AdaARI), r.Benchmarks[0]
	var kept *noc.Network
	if _, err := r.RunAll([]Job{{Cfg: cfg, Kernel: k, Observe: func(s *core.Simulator) { kept = s.RequestNet() }}}); err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		b, err := json.Marshal(kept.StateSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := snapshot()
	if kept.InFlight() == 0 {
		t.Fatal("the observed network finished empty: the test would see no change")
	}
	if _, err := r.RunAll(sweepJobs(r)); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(); !bytes.Equal(got, want) {
		t.Errorf("the observed job's request network changed under later jobs:\n got %s\nwant %s", got, want)
	}
}

// sweepJobs is a small 3-benchmark x 2-scheme matrix used by the journal
// tests.
func sweepJobs(r *Runner) []Job {
	var jobs []Job
	for _, k := range r.Benchmarks {
		for _, s := range []core.Scheme{core.XYBaseline, core.AdaARI} {
			jobs = append(jobs, Job{Cfg: r.withScheme(s), Kernel: k})
		}
	}
	return jobs
}

func TestJournalResumeAfterKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")

	// Uninterrupted sweep, journalled.
	r1 := tinyRunner(t)
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	r1.Journal = j1
	want, err := r1.RunAll(sweepJobs(r1))
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	total := r1.Runs()
	if total != len(want) {
		t.Fatalf("runs = %d, want %d", total, len(want))
	}

	// Simulate a kill: keep the first 2 complete lines, then a torn partial
	// write of the third — exactly what SIGKILL mid-append leaves behind.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != total {
		t.Fatalf("journal has %d lines, want %d", len(lines), total)
	}
	const keep = 2
	torn := strings.Join(lines[:keep], "\n") + "\n" + lines[keep][:len(lines[keep])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh process image: a new Runner with no cache.
	r2 := tinyRunner(t)
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Loaded() != keep {
		t.Fatalf("resumed journal loaded %d entries, want %d", j2.Loaded(), keep)
	}
	r2.Journal = j2
	got, err := r2.RunAll(sweepJobs(r2))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Runs() != total-keep {
		t.Fatalf("resumed sweep ran %d simulations, want %d", r2.Runs(), total-keep)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed sweep results differ from the uninterrupted sweep")
	}
	// The repaired journal must now hold every run again.
	if j2.Len() != total {
		t.Fatalf("journal holds %d entries after resume, want %d", j2.Len(), total)
	}
}

func TestJournalIgnoresForeignVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	content := `{"v":999,"key":"abc","bench":"x","scheme":"y","result":{}}` + "\n" +
		"not json at all\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Loaded() != 0 {
		t.Fatalf("loaded %d foreign entries, want 0", j.Loaded())
	}
}
