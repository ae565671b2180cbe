package exp

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// stallFirstSimulator makes the first construction build a run that cannot
// finish inside RunTimeout (transient-contention stand-in) and sets late
// until the next construction, which builds the real configuration.
func stallFirstSimulator(calls *atomic.Int32, late *atomic.Bool) func(core.Config, trace.Kernel) (*core.Simulator, error) {
	return func(cfg core.Config, k trace.Kernel) (*core.Simulator, error) {
		if calls.Add(1) == 1 {
			late.Store(true)
			slow := cfg
			slow.MeasureCycles = 1 << 40
			return core.NewSimulator(slow, k)
		}
		late.Store(false)
		return core.NewSimulator(cfg, k)
	}
}

func TestRunRetriesTimeoutThenMatchesCleanRun(t *testing.T) {
	// Reference: an untouched runner's result for the job.
	clean := tinyRunner(t)
	cfg := clean.withScheme(core.AdaARI)
	want, err := clean.Run(cfg, clean.Benchmarks[0])
	if err != nil {
		t.Fatal(err)
	}

	orig, origClock := newSimulator, clock
	defer func() { newSimulator, clock = orig, origClock }()
	var calls atomic.Int32
	var late atomic.Bool
	newSimulator = stallFirstSimulator(&calls, &late)
	// While the stalled attempt runs the clock reads an hour ahead, so its
	// first watchdog poll finds the deadline passed: the attempt times out
	// at once instead of simulating until RunTimeout.
	clock = func() time.Time {
		if late.Load() {
			return time.Now().Add(time.Hour)
		}
		return time.Now()
	}

	r := tinyRunner(t)
	// Generous: the genuine tiny run must finish inside it even under -race.
	r.RunTimeout = 5 * time.Second
	r.MaxRetries = 1
	r.RetryBackoff = time.Millisecond
	got, err := r.Run(cfg, r.Benchmarks[0])
	if err != nil {
		t.Fatalf("run with one transient timeout failed: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("simulator constructed %d times, want 2 (timeout + retry)", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retried run diverged from clean run:\n got %+v\nwant %+v", got, want)
	}
	if r.Runs() != 1 {
		t.Fatalf("runs = %d, want 1 (the retry is the same run)", r.Runs())
	}
	// The cached result is the retried one, with no further simulation.
	again, err := r.Run(cfg, r.Benchmarks[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) || calls.Load() != 2 {
		t.Fatal("cached result after retry differs or re-simulated")
	}
}

func TestRunRetriesExhaustedSurfaceTimeout(t *testing.T) {
	orig := newSimulator
	defer func() { newSimulator = orig }()
	newSimulator = func(cfg core.Config, k trace.Kernel) (*core.Simulator, error) {
		slow := cfg
		slow.MeasureCycles = 1 << 40
		return core.NewSimulator(slow, k)
	}

	r := tinyRunner(t)
	r.RunTimeout = 20 * time.Millisecond
	r.MaxRetries = 2
	r.RetryBackoff = time.Millisecond
	_, err := r.Run(r.withScheme(core.XYBaseline), r.Benchmarks[0])
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("err = %v, want ErrRunTimeout after exhausted retries", err)
	}
}

func TestRunDoesNotRetryDeterministicFailures(t *testing.T) {
	orig := newSimulator
	defer func() { newSimulator = orig }()
	var calls atomic.Int32
	newSimulator = func(cfg core.Config, k trace.Kernel) (*core.Simulator, error) {
		calls.Add(1)
		return core.NewSimulator(badConfig(1), k)
	}

	r := tinyRunner(t)
	r.MaxRetries = 3
	r.RetryBackoff = time.Millisecond
	if _, err := r.Run(r.withScheme(core.XYBaseline), r.Benchmarks[0]); err == nil {
		t.Fatal("invalid config returned no error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("deterministic failure attempted %d times, want 1", n)
	}
}
