// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Figs 3-6, 9-16, the §3 link-utilisation
// analysis, the §6.1 area overheads and the §7.5 scalability study) from
// the simulator, printing the same rows/series the paper reports.
//
// Runs are stored by JobKey(config, benchmark) and executed on a worker pool,
// so figures that share underlying simulations (e.g. Figs 3/5/11/12/13 all
// use the main 30-benchmark scheme matrix) pay for them once.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Runner executes simulations with memoisation and bounded parallelism.
//
// It is hardened against misbehaving runs: every simulation executes under
// core.RunChecked's forward-progress watchdogs (a deadlock fails with a
// diagnostic instead of hanging the sweep), a panicking run is recovered
// into an error naming the (benchmark, scheme) pair, dispatch stops at the
// first failure and all collected failures are returned joined, and an
// opt-in Journal persists finished runs so a killed sweep resumes where it
// stopped.
type Runner struct {
	// Base is the configuration template; figure code overrides fields.
	Base core.Config
	// Benchmarks is the evaluated suite (defaults to trace.Suite()).
	Benchmarks []trace.Kernel
	// Workers bounds parallel simulations (default GOMAXPROCS: each run
	// steps on one goroutine).
	Workers int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer

	// RunTimeout bounds each simulation's wall time (0 = unlimited). A run
	// that exceeds it fails the sweep with an error naming the run.
	RunTimeout time.Duration
	// MaxRetries re-attempts a run that failed only on RunTimeout — the
	// signature of transient host contention rather than a broken
	// configuration — up to this many extra times. Deterministic failures
	// (validation, panics, watchdog deadlocks) are never retried. 0
	// disables retries.
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt (default 100ms when MaxRetries > 0).
	RetryBackoff time.Duration
	// Checks configures the per-run watchdogs; the zero value enables the
	// default deadlock/starvation thresholds (see core.CheckOptions).
	Checks core.CheckOptions
	// Journal, when non-nil, is the result store: every finished or adopted
	// run is appended and fsync'd before it becomes visible, making sweeps
	// resumable across process kills. Attach it before the first run.
	Journal *Journal

	// Monitor, when non-nil, tracks every executing run for live
	// introspection: each run registers on start, reports progress at
	// watchdog-poll cadence through core.CheckOptions.Inspector, and
	// deregisters on completion. The job server exposes the monitor at
	// /metrics and /debug/nocstate.
	Monitor *obs.RunMonitor

	mu sync.Mutex
	// results is the store when no Journal is attached, keyed by JobKey.
	results map[string]core.Result
	runs    int
	hits    int
}

// ErrRunTimeout marks a run that exceeded RunTimeout; errors.Is against it
// selects the only failure class MaxRetries re-attempts.
var ErrRunTimeout = errors.New("run timed out")

// newSimulator is a seam for tests that need a run to fail or panic on
// demand; production code never reassigns it.
var newSimulator = core.NewSimulator

// clock is the time RunTimeout is measured on: a seam for tests that need a
// run to overrun its deadline at once; production code never reassigns it.
var clock = time.Now

// NewRunner returns a Runner over the full suite with Table I defaults and
// harness-appropriate horizons.
func NewRunner() *Runner {
	cfg := core.DefaultConfig()
	cfg.WarmupCycles = 3000
	cfg.MeasureCycles = 10000
	return &Runner{Base: cfg, Benchmarks: trace.Suite()}
}

// Job is one simulation request.
type Job struct {
	Cfg    core.Config
	Kernel trace.Kernel
	// Observe, when non-nil, is handed every simulator built for the job —
	// a retried attempt's fresh one too — before it runs. It must only
	// observe (a config determines its Result byte-identically), never
	// alter the run. An observed job always simulates, even when the store
	// holds its key; its Result is stored and counted like any other run.
	Observe func(*core.Simulator)
}

// Runs returns the number of distinct simulations executed so far.
func (r *Runner) Runs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs
}

// StoreHits returns the number of jobs the store answered without a run.
func (r *Runner) StoreHits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits
}

// Run executes (or recalls) one simulation.
func (r *Runner) Run(cfg core.Config, k trace.Kernel) (core.Result, error) {
	return r.RunKey(context.Background(), jobKey(cfg, k.Name), Job{Cfg: cfg, Kernel: k})
}

// RunAll executes the jobs (deduplicated against the store) on the worker
// pool and returns results in job order.
func (r *Runner) RunAll(jobs []Job) ([]core.Result, error) {
	return r.RunAllContext(context.Background(), jobs)
}

// RunAllContext is RunAll under a context: cancelling ctx interrupts every
// in-flight simulation at its next watchdog poll and stops dispatch. On any
// failure, dispatch of not-yet-started jobs stops immediately and the
// joined errors of every failed run (plus ctx's error, if cancelled) are
// returned.
func (r *Runner) RunAllContext(ctx context.Context, jobs []Job) ([]core.Result, error) {
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = jobKey(j.Cfg, j.Kernel.Name)
	}
	return r.runKeyed(ctx, keys, jobs)
}

// RunKey is RunAllContext for one job whose JobKey the caller already
// derived (the serving layer computes it once per submission).
func (r *Runner) RunKey(ctx context.Context, key string, j Job) (core.Result, error) {
	results, err := r.runKeyed(ctx, []string{key}, []Job{j})
	if err != nil {
		return core.Result{}, err
	}
	return results[0], nil
}

// runKeyed runs jobs[i] under keys[i] = its JobKey.
func (r *Runner) runKeyed(ctx context.Context, keys []string, jobs []Job) ([]core.Result, error) {
	// Collect the jobs that still need simulating: every observed job, and
	// one job per distinct other key the store cannot answer — the journal
	// answers for runs a previous (possibly killed) sweep finished.
	var need []int
	pending := make(map[string]bool)
	hits := 0
	for i, j := range jobs {
		if _, ok := r.LookupKey(keys[i]); ok && j.Observe == nil {
			hits++
		} else if j.Observe != nil || !pending[keys[i]] {
			need = append(need, i)
			pending[keys[i]] = true
		}
	}
	r.mu.Lock()
	r.hits += hits
	r.mu.Unlock()

	if len(need) > 0 {
		sort.SliceStable(need, func(a, b int) bool {
			x, y := jobs[need[a]], jobs[need[b]]
			if x.Kernel.Name != y.Kernel.Name {
				return x.Kernel.Name < y.Kernel.Name
			}
			return fmt.Sprint(x.Cfg) < fmt.Sprint(y.Cfg)
		})

		workers := r.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, len(need))

		// fail is closed once, on the first failure; dispatch selects on it
		// so queued jobs are abandoned rather than started.
		fail := make(chan struct{})
		var failOnce sync.Once
		var errMu sync.Mutex
		var errs []error
		report := func(err error) {
			errMu.Lock()
			errs = append(errs, err)
			errMu.Unlock()
			failOnce.Do(func() { close(fail) })
		}

		var wg sync.WaitGroup
		ch := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ch {
					res, err := r.simulateRetry(ctx, jobs[i])
					if err != nil {
						report(err)
						continue
					}
					if err := r.finish(keys[i], res); err != nil {
						report(err)
					}
				}
			}()
		}
	dispatch:
		for _, i := range need {
			select {
			case ch <- i:
			case <-fail:
				break dispatch
			case <-ctx.Done():
				break dispatch
			}
		}
		close(ch)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			errs = append(errs, err) // every worker has returned: no lock needed
		}
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
	}

	out := make([]core.Result, len(jobs))
	for i, j := range jobs {
		res, ok := r.LookupKey(keys[i])
		if !ok {
			return nil, fmt.Errorf("exp: missing result for %s", j.Kernel.Name)
		}
		out[i] = res
	}
	return out, nil
}

// finish publishes one completed run: store first (a journal syncs it to
// disk), then the run count + progress, so a crash between the two at worst
// recomputes nothing.
func (r *Runner) finish(key string, res core.Result) error {
	if err := r.AdoptKey(key, res); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	// The progress write stays under the mutex: workers share r.Progress,
	// and io.Writer implementations (bytes.Buffer, files with buffering)
	// are not safe for concurrent use.
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, "run %3d: %-16s %-20s IPC=%.3f\n",
			r.runs, res.Benchmark, res.Scheme, res.IPC)
	}
	return nil
}

// Lookup returns the stored result for (cfg, bench), if any, without
// simulating.
func (r *Runner) Lookup(cfg core.Config, bench string) (core.Result, bool) {
	return r.LookupKey(jobKey(cfg, bench))
}

// LookupKey returns the result stored under the given JobKey without
// simulating: from the journal when one is attached, else from memory. It
// lets a serving layer answer duplicate submissions idempotently, and it is
// the lookup cluster peers perform — the key is the content hash itself, so
// no configuration needs to travel with the query.
func (r *Runner) LookupKey(key string) (core.Result, bool) {
	if r.Journal != nil {
		return r.Journal.Get(key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.results[key]
	return res, ok
}

// Adopt stores a result computed elsewhere — a cluster peer that already
// ran the job — without counting it as a run. Determinism makes adoption
// safe: the same (config, benchmark) produces the same Result bytes on every
// replica, and keeping Runs() untouched preserves the zero-duplicate-runs
// accounting the cluster soaks verify.
func (r *Runner) Adopt(cfg core.Config, bench string, res core.Result) error {
	return r.AdoptKey(jobKey(cfg, bench), res)
}

// AdoptKey is Adopt under an already derived JobKey, and the one write into
// the store: the journal (fsync'd, then visible) when attached, else memory.
func (r *Runner) AdoptKey(key string, res core.Result) error {
	if r.Journal != nil {
		return r.Journal.record(key, res)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.results == nil {
		r.results = make(map[string]core.Result)
	}
	r.results[key] = res
	return nil
}

// simulateRetry wraps simulate in the opt-in MaxRetries policy: only a
// RunTimeout failure — transient host contention — is retried, after an
// exponentially growing backoff; any other failure is deterministic and
// returns immediately.
func (r *Runner) simulateRetry(ctx context.Context, j Job) (core.Result, error) {
	res, err := r.simulate(ctx, j)
	backoff := r.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for attempt := 0; attempt < r.MaxRetries && errors.Is(err, ErrRunTimeout) && ctx.Err() == nil; attempt++ {
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return res, err
		}
		backoff *= 2
		res, err = r.simulate(ctx, j)
	}
	return res, err
}

// simulate executes one uncached run under the watchdogs, the per-run
// timeout and ctx. A panic anywhere inside the simulation is recovered into
// an error naming the run, so one poisoned configuration cannot kill a
// whole sweep's process.
func (r *Runner) simulate(ctx context.Context, j Job) (res core.Result, err error) {
	name := fmt.Sprintf("%s/%s", j.Kernel.Name, j.Cfg.Scheme)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: %s: panic: %v\n%s", name, p, debug.Stack())
		}
	}()

	opt := r.checks(ctx)
	sim, err := newSimulator(j.Cfg, j.Kernel)
	if err != nil {
		return core.Result{}, fmt.Errorf("exp: %s: %w", name, err)
	}
	if j.Observe != nil {
		j.Observe(sim) // an observer may keep a fabric: the GC, not Close, frees it
	} else {
		defer sim.Close()
	}
	if r.Monitor != nil {
		st := r.Monitor.Begin(name, j.Cfg.Scheme.String(), j.Cfg.WarmupCycles+j.Cfg.MeasureCycles)
		defer r.Monitor.End(st)
		opt.Inspector = st
	}
	if res, err = sim.RunChecked(opt); err != nil {
		return core.Result{}, r.runError(ctx, name, err)
	}
	return res, nil
}

// checks returns the CheckOptions of one run: r.Checks with an Interrupt
// that fires once ctx is done or, when RunTimeout is set, once RunTimeout
// has passed from now.
func (r *Runner) checks(ctx context.Context) core.CheckOptions {
	opt, timeout := r.Checks, r.RunTimeout
	deadline := clock().Add(timeout)
	opt.Interrupt = func() bool {
		return ctx.Err() != nil || timeout > 0 && clock().After(deadline)
	}
	return opt
}

// runError names the failed run and reports an interrupt as its cause:
// ctx's error, or else ErrRunTimeout.
func (r *Runner) runError(ctx context.Context, name string, err error) error {
	if errors.Is(err, core.ErrInterrupted) {
		if err = ctx.Err(); err == nil {
			err = fmt.Errorf("%w after %s", ErrRunTimeout, r.RunTimeout)
		}
	}
	return fmt.Errorf("exp: %s: %w", name, err)
}

// withScheme returns the base config with the scheme set.
func (r *Runner) withScheme(s core.Scheme) core.Config {
	cfg := r.Base
	cfg.Scheme = s
	return cfg
}
