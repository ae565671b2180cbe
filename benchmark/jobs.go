package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/trace"
)

// replicaURLs are the names the gateway ring hashes. They are stable (the
// loopback ports are not), so which replica owns a job key depends only on
// -seed; the HTTP clients dial them through nameDialer.
var replicaURLs = []string{"http://replica-a", "http://replica-b"}

// job is one simulation of the workload plus what the serving phases need
// to request it and to check its answers.
type job struct {
	exp.Job
	key   string
	owner int // index into replicaURLs of the key's primary ring owner
	// group numbers the (kernel, seed) pair; the jobs of one group differ
	// only in scheme, so scheme-vs-scheme ratios are taken within a group.
	group int

	hitBody []byte // POST /v1/jobs body resolving to exactly Job
	estBody []byte // a never-run neighbour key, Estimate: true

	// result is the reference core.Result JSON: the first direct
	// simulation's. Every other path's answer for this job must equal it
	// byte for byte.
	result []byte
	res    core.Result
}

// options are the knobs of one run.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	quick   bool
}

// env is one run of one workload: the inputs made from -seed, and the
// recorder every phase reports into.
type env struct {
	w    workload
	opt  options
	base core.Config
	jobs []*job
	rec  *recorder

	clients   int // closed-loop clients and sweep workers: min(nproc, 2)
	sliceReqs int // requests per hit/estimate slice
	hitOrder  []int

	// simTimes[i] are job i's direct-simulation host seconds, one per round.
	simTimes [][]float64
}

func newEnv(w workload, opt options) (*env, error) {
	e := &env{w: w, opt: opt, rec: newRecorder(), clients: clientCount(), sliceReqs: 1000}
	kernels, seeds := w.Kernels, w.Seeds
	e.base = core.DefaultConfig() // Table I 6x6 system, Shards=0, no faults
	e.base.WarmupCycles, e.base.MeasureCycles = w.Warmup, w.Measure
	if opt.quick {
		kernels, seeds = kernels[:w.QuickKernels], 1
		e.base.WarmupCycles, e.base.MeasureCycles = 500, 1500
		e.sliceReqs = 70
	}
	ring, err := cluster.NewRing(replicaURLs, 0)
	if err != nil {
		return nil, err
	}
	for ki, name := range kernels {
		k, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, sc := range w.Schemes {
			for s := 0; s < seeds; s++ {
				cfg := e.base
				cfg.Scheme = sc
				// Alternate the primary owner so a closed loop keeps both
				// replicas busy whatever -seed is: nudge the simulator seed
				// upward until the key lands on the intended replica.
				want := len(e.jobs) % len(replicaURLs)
				var key string
				for cfg.Seed = 1 + opt.seed + uint64(s)<<20; ; cfg.Seed++ {
					key = exp.JobKey(cfg, k.Name)
					if ring.Owners(key, 1)[0] == replicaURLs[want] {
						break
					}
				}
				j := &job{Job: exp.Job{Cfg: cfg, Kernel: k}, key: key, owner: want, group: ki*seeds + s}
				j.hitBody = requestBody(k.Name, sc, cfg.Seed, false)
				j.estBody = requestBody(k.Name, sc, cfg.Seed+1<<30, true)
				e.jobs = append(e.jobs, j)
			}
		}
	}
	e.simTimes = make([][]float64, len(e.jobs))
	// Hits resubmit the cold keys in a -seed-shuffled order.
	e.hitOrder = make([]int, len(e.jobs))
	rng.New(opt.seed).Perm(e.hitOrder)
	return e, nil
}

func requestBody(bench string, sc core.Scheme, seed uint64, estimate bool) []byte {
	b, err := json.Marshal(struct {
		Bench    string `json:"bench"`
		Scheme   string `json:"scheme"`
		Seed     uint64 `json:"seed"`
		Estimate bool   `json:"estimate,omitempty"`
	}{bench, sc.String(), seed, estimate})
	if err != nil {
		panic(err) // plain data
	}
	return b
}

// cycles is the simulated NoC cycles of one pass over the job list.
func (e *env) cycles() float64 {
	return float64(len(e.jobs)) * float64(e.base.WarmupCycles+e.base.MeasureCycles)
}

// checkResult verifies one path's answer for job i against the reference
// (the first answer becomes the reference) and counts one operation.
func (e *env) checkResult(i int, path string, res core.Result, err error) bool {
	j := e.jobs[i]
	fail := ""
	switch b, merr := json.Marshal(res); {
	case err != nil:
		fail = err.Error()
	case merr != nil:
		fail = merr.Error()
	case res.Truncated || res.Instructions == 0:
		fail = fmt.Sprintf("truncated=%v instructions=%d", res.Truncated, res.Instructions)
	case j.result == nil:
		j.result, j.res = b, res
	case !bytes.Equal(b, j.result):
		fail = "Result differs from the first direct simulation's"
	}
	return e.rec.check(fail == "", "%s %s/%s: %s", path, j.Kernel.Name, j.Cfg.Scheme, fail)
}

// digest is the sha256 over every job's reference Result, in job order.
func (e *env) digest() (hexsum string, low48 float64) {
	h := sha256.New()
	for _, j := range e.jobs {
		h.Write(j.result)
		h.Write([]byte{'\n'})
	}
	s := h.Sum(nil)
	return hex.EncodeToString(s), float64(binary.BigEndian.Uint64(s[:8]) >> 16)
}
