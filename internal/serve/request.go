package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/trace"
)

// JobRequest is one simulation submission. A request is identified by the
// (config, benchmark) pair it resolves to — exp.JobKey — so resubmitting
// the same request (client retry, restarted sweep) is idempotent: it hits
// the journal-backed cache instead of re-running.
type JobRequest struct {
	// Bench names the benchmark (trace.ByName).
	Bench string `json:"bench"`

	// Config, when non-nil, is the full simulation configuration, used
	// verbatim (after validation). Sweep clients use this to run arbitrary
	// ablation points.
	Config *core.Config `json:"config,omitempty"`

	// The remaining fields build a config from the server's base when
	// Config is nil; zero values inherit the base.
	Scheme string `json:"scheme,omitempty"`
	Cycles int64  `json:"cycles,omitempty"`
	Warmup int64  `json:"warmup,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`

	// TimeoutMs is the client's deadline for this job in milliseconds
	// (0 = none beyond the server's own per-run cap). It propagates through
	// the request context into the run's watchdog interrupt, so an expired
	// job is cancelled, not orphaned.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`

	// Estimate answers from the analytical model (internal/analytic) in
	// microseconds instead of scheduling a simulation: no queue slot, no
	// shedding, no journal write. If the exact result is already in the
	// store it wins over the model. Escalation to a real simulation is a
	// resubmission with Estimate unset — idempotent under the same JobKey.
	Estimate bool `json:"estimate,omitempty"`
}

// DecodeJobRequest reads one JobRequest from body. It refuses a field that
// neither JobRequest nor core.Config has, so a request naming an option the
// simulator does not have fails instead of running without it, and anything
// after the object. The server and the gateway both decode with it.
func DecodeJobRequest(body io.Reader, q *JobRequest) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(q); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the request object")
	}
	return nil
}

// Timeout returns the request deadline as a duration (0 = none).
func (q *JobRequest) Timeout() time.Duration {
	if q.TimeoutMs <= 0 {
		return 0
	}
	return time.Duration(q.TimeoutMs) * time.Millisecond
}

// JobResponse is the reply to a completed submission.
type JobResponse struct {
	// Key is the job's idempotency key (exp.JobKey).
	Key string `json:"key"`
	// Cached reports that the result came from the cache or journal
	// without running a simulation.
	Cached bool        `json:"cached"`
	Result core.Result `json:"result"`

	// Peer, when non-empty, names the cluster peer whose journal answered
	// this submission (Cached is also set): the job was computed on another
	// replica and adopted locally without re-running.
	Peer string `json:"peer,omitempty"`

	// Estimated reports that Result is empty and Estimate holds the
	// analytical model's answer instead (estimate-mode requests only; a
	// store hit answers with the exact Result even in estimate mode).
	Estimated bool               `json:"estimated,omitempty"`
	Estimate  *analytic.Estimate `json:"estimate,omitempty"`
}

// errorResponse is the body of every non-200 reply.
type errorResponse struct {
	Error string `json:"error"`
}

// BuildJob resolves a request against a base configuration into a
// validated runner job — the same resolution the server applies, exported
// so a routing front door (internal/cluster) derives the identical
// exp.JobKey for consistent-hash placement.
func BuildJob(base core.Config, q *JobRequest) (exp.Job, error) {
	kernel, err := trace.ByName(q.Bench)
	if err != nil {
		return exp.Job{}, err
	}
	cfg := base
	if q.Config != nil {
		cfg = *q.Config
	} else {
		if q.Scheme != "" {
			sch, err := core.ParseScheme(q.Scheme)
			if err != nil {
				return exp.Job{}, err
			}
			cfg.Scheme = sch
		}
		if q.Cycles > 0 {
			cfg.MeasureCycles = q.Cycles
		}
		if q.Warmup > 0 {
			cfg.WarmupCycles = q.Warmup
		}
		if q.Seed != 0 {
			cfg.Seed = q.Seed
		}
	}
	if err := cfg.Validate(); err != nil {
		return exp.Job{}, fmt.Errorf("invalid config: %w", err)
	}
	return exp.Job{Cfg: cfg, Kernel: kernel}, nil
}
