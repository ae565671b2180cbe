package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/exp"
)

// newRunner returns a sweep runner over the workload's base configuration
// with the fsync'd journal at path attached.
func (e *env) newRunner(path string) (*exp.Runner, error) {
	j, err := exp.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	r := exp.NewRunner()
	r.Base = e.base
	r.Workers = e.clients
	r.Journal = j
	return r, nil
}

func (e *env) expJobs() []exp.Job {
	jobs := make([]exp.Job, len(e.jobs))
	for i, j := range e.jobs {
		jobs[i] = j.Job
	}
	return jobs
}

// sweepPhase is the ariexp/arisweep user's path: the whole job list through
// Runner.RunAll on min(nproc, 2) workers with an fsync'd journal.
func (e *env) sweepPhase(dir string) error {
	jobs := e.expJobs()
	r, err := e.newRunner(filepath.Join(dir, "sweep.jsonl"))
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := r.RunAll(jobs)
	wall := time.Since(t0)
	if cerr := r.Journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		e.rec.check(false, "sweep: %v", err)
		return nil
	}
	e.rec.add("sweep_runs_per_s", float64(len(jobs))/wall.Seconds())
	for i := range res {
		e.checkResult(i, "sweep", res[i], nil)
	}
	e.rec.check(r.Runs() == len(jobs), "sweep: %d runs for %d jobs", r.Runs(), len(jobs))
	return nil
}

// resumeReplays is the resume path of a killed sweep: reopen the finished
// journal at path and replay the list from it, which must simulate nothing.
func (e *env) resumeReplays(path string) error {
	jobs := e.expJobs()
	reps := 10
	if e.opt.quick {
		reps = 2
	}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		r, err := e.newRunner(path)
		if err != nil {
			return err
		}
		res, err := r.RunAll(jobs)
		wall := time.Since(t0)
		r.Journal.Close() // only read
		ok := err == nil && r.Runs() == 0
		for i := 0; ok && i < len(res); i++ {
			ok = res[i] == e.jobs[i].res
		}
		if e.rec.check(ok, "resume: replay ran %d simulations or differs from the journal (err %v)", r.Runs(), err) {
			e.rec.add("exp.resume_runs_per_s", float64(len(jobs))/wall.Seconds())
		}
	}
	return nil
}

// tracedSweepPhase times the runner's parts one call at a time: Runner.Run
// per job from the worker goroutines, the resume replays, Runner.Adopt as
// the public path to the fsync'd append, and the journal's open / get / key
// primitives.
func (e *env) tracedSweepPhase(dir string) error {
	path := filepath.Join(dir, "sweep.jsonl")
	r, err := e.newRunner(path)
	if err != nil {
		return err
	}
	var next atomic.Int64
	var busy atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < e.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(e.jobs); i = int(next.Add(1)) - 1 {
				j := e.jobs[i]
				t := time.Now()
				res, err := r.Run(j.Cfg, j.Kernel)
				d := time.Since(t)
				busy.Add(int64(d))
				e.rec.add("exp.run_ms", ms(d))
				e.checkResult(i, "runner", res, err)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	e.rec.add("exp.worker_busy_share", float64(busy.Load())/(float64(e.clients)*float64(wall)))
	if err := r.Journal.Close(); err != nil {
		return err
	}
	if st, err := os.Stat(path); err == nil {
		e.rec.add("exp.journal_bytes_per_run", float64(st.Size())/float64(len(e.jobs)))
	}
	if err := e.resumeReplays(path); err != nil {
		return err
	}

	adopter, err := e.newRunner(filepath.Join(dir, "adopt.jsonl"))
	if err != nil {
		return err
	}
	for _, j := range e.jobs {
		t := time.Now()
		err := adopter.Adopt(j.Cfg, j.Kernel.Name, j.res)
		e.rec.add("exp.journal_append_ms", ms(time.Since(t)))
		e.rec.check(err == nil, "adopt %s: %v", j.Kernel.Name, err)
	}
	if err := adopter.Journal.Close(); err != nil {
		return err
	}

	t := time.Now()
	jr, err := exp.OpenJournal(path)
	if err != nil {
		return err
	}
	e.rec.add("exp.journal_open_ms", ms(time.Since(t)))
	defer jr.Close()
	const reps = 50
	t = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, j := range e.jobs {
			if _, ok := jr.Get(j.key); !ok {
				return fmt.Errorf("journal lost key of %s", j.Kernel.Name)
			}
		}
	}
	e.rec.add("exp.journal_get_us", us(time.Since(t))/float64(reps*len(e.jobs)))
	t = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, j := range e.jobs {
			if exp.JobKey(j.Cfg, j.Kernel.Name) != j.key {
				return fmt.Errorf("job key of %s is not stable", j.Kernel.Name)
			}
		}
	}
	e.rec.add("exp.jobkey_us", us(time.Since(t))/float64(reps*len(e.jobs)))
	return nil
}

// analyticLayer times analytic.EstimateOne on every job and takes the
// model's IPC error against the simulated IPC.
func (e *env) analyticLayer() {
	const reps = 20
	var errs []float64
	for _, j := range e.jobs {
		t := time.Now()
		var est analytic.Estimate
		var err error
		for rep := 0; rep < reps; rep++ {
			est, err = analytic.EstimateOne(j.Cfg, j.Kernel)
		}
		e.rec.add("analytic.estimate_us", us(time.Since(t))/reps)
		if e.rec.check(err == nil, "estimate %s/%s: %v", j.Kernel.Name, j.Cfg.Scheme, err) && j.res.IPC > 0 {
			errs = append(errs, 100*math.Abs(est.IPC-j.res.IPC)/j.res.IPC)
		}
	}
	e.rec.add("estimate_ipc_err_pct", mean(errs))
}
