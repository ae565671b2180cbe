package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
)

// The submission pipeline (DESIGN.md §9). POST /v1/jobs runs the stages
// table over one per-request value; a stage passes the request on (nil) or
// returns the answer that ends it, and every answer leaves through
// Server.answer. /metrics, /v1/stats and the serve.* spans are generated
// from the two tables below, so adding a path is adding a row.

// outcome is how a submission ended.
type outcome int

const (
	outBadRequest outcome = iota
	outCached
	outEstimated
	outPeer
	outDraining
	outShed
	outCancelled
	outError
	outOK
	outAbandoned
	numOutcomes
)

// sloClass is an outcome's meaning for the job_latency objective.
type sloClass int

const (
	sloNone   sloClass = iota // not an event: the client's fault, or no client left
	sloServed                 // latency observed: ari_job_seconds, good when within the target
	sloFailed                 // a bad event
)

var (
	errDraining  = errors.New("draining")
	errQueueFull = errors.New("admission queue full")
)

// outcomes is the one description of every way a submission can end.
var outcomes = [numOutcomes]struct {
	name string // the serve.job span's outcome attr
	// status is the HTTP answer; 0 takes it from the error's class
	// (errorClass). Every 429 and 503 carries Retry-After (writeError).
	status int
	slo    sloClass
	// metric/help and stat publish the count on /metrics and in Stats.
	metric, help string
	stat         func(*Stats) *int64
}{
	outBadRequest: {name: "bad_request", status: http.StatusBadRequest},
	outCached: {name: "cached", status: http.StatusOK, slo: sloServed,
		metric: "ari_jobs_cache_hits_total", help: "Submissions answered from the cache or journal.",
		stat: func(st *Stats) *int64 { return &st.CacheHits }},
	outEstimated: {name: "estimated", status: http.StatusOK, slo: sloServed,
		metric: "ari_jobs_estimated_total", help: "Estimate-mode submissions answered by the analytical model.",
		stat: func(st *Stats) *int64 { return &st.Estimated }},
	outPeer: {name: "peer", status: http.StatusOK, slo: sloServed,
		metric: "ari_jobs_peer_hits_total", help: "Submissions answered from a cluster peer's journal without running.",
		stat: func(st *Stats) *int64 { return &st.PeerHits }},
	outDraining: {name: "draining", status: http.StatusServiceUnavailable, slo: sloFailed},
	outShed: {name: "shed", status: http.StatusTooManyRequests, slo: sloFailed,
		metric: "ari_jobs_shed_total", help: "Submissions rejected with 429 because the queue was full.",
		stat: func(st *Stats) *int64 { return &st.Shed }},
	outCancelled: {name: "cancelled", slo: sloFailed},
	outError:     {name: "error", slo: sloFailed},
	outOK: {name: "ok", status: http.StatusOK, slo: sloServed,
		metric: "ari_jobs_completed_total", help: "Simulations finished by this process.",
		stat: func(st *Stats) *int64 { return &st.Completed }},
	outAbandoned: {name: "abandoned"}, // nobody left to answer: nothing is written
}

// errorClass maps a failed wait or run onto a status: deadline expiry is
// 504, cancellation (client gone, drain abort) is 503 — both retryable by an
// idempotent client — anything else is a terminal 500.
func errorClass(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "job deadline exceeded: " + err.Error()
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "job cancelled: " + err.Error()
	}
	return http.StatusInternalServerError, err.Error()
}

const (
	stDecode = iota
	stLookup
	stEstimate
	stPeerFetch
	stAdmit
	stAwaitSlot
	stRun
	numStages
)

// stages is the submission pipeline, in order.
var stages = [numStages]struct {
	name string
	// span, when set, brackets the stage with a child span of serve.job.
	span string
	// metric/help export the stage's latency histogram on /metrics; okOnly
	// restricts it to submissions that ended ok.
	metric, help string
	okOnly       bool
	// when, if set, says whether the stage applies to this submission.
	when func(*Server, *request) bool
	run  func(*Server, *request) *answer
}{
	stDecode: {name: "decode", run: (*Server).decode},
	stLookup: {name: "lookup", run: (*Server).lookup},
	stEstimate: {name: "estimate", run: (*Server).estimate,
		when: func(_ *Server, rq *request) bool { return rq.q.Estimate }},
	stPeerFetch: {name: "peer_fetch", span: "serve.peer_fetch", run: (*Server).peerFetch,
		when: func(s *Server, _ *request) bool { return len(s.cfg.Peers) > 0 }},
	stAdmit: {name: "admit", span: "serve.admission", run: (*Server).admit},
	stAwaitSlot: {name: "await_slot", span: "serve.queue_wait", run: (*Server).awaitSlot,
		metric: "ari_queue_wait_seconds", help: "Admitted jobs' wait for an execution slot."},
	stRun: {name: "run", span: "serve.run", run: (*Server).run,
		metric: "ari_run_seconds", help: "Simulation wall time of completed runs.", okOnly: true},
}

// request is one submission on its way through the stages.
type request struct {
	w     http.ResponseWriter
	r     *http.Request
	start time.Time
	scope *obs.Scope // nil when untraced

	q   JobRequest
	job exp.Job
	key string // exp.JobKey(job), derived once by decode

	// ctx is the run's context, armed by admit: the client's deadline and
	// disconnect cancel it via the request, a drain-deadline Abort via rootCtx.
	ctx context.Context

	span     obs.Span // the current stage's span (zero when it has none, or ended)
	took     [numStages]time.Duration
	ran      uint     // bit i: stage i ran
	cleanup  []func() // slot releases and context cancels, newest last
	answered bool
}

// answer is a stage's verdict that the submission ends here.
type answer struct {
	outcome outcome
	resp    JobResponse // served outcomes: the body (answer fills in Key)
	err     error       // every other outcome: why
}

func reject(o outcome, err error) *answer { return &answer{outcome: o, err: err} }

// endSpan closes the current stage's span: the driver as the stage returns,
// a stage sooner when what follows (journalling an adopted result, arming a
// context) is not its span's to time.
func (rq *request) endSpan(attrs ...string) {
	rq.scope.EndChild(rq.span, attrs...)
	rq.span = obs.Span{}
}

// release undoes what the stages acquired, newest first.
func (rq *request) release() {
	for i := len(rq.cleanup) - 1; i >= 0; i-- {
		rq.cleanup[i]()
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rq := &request{w: w, r: r, start: time.Now(),
		scope: s.spans.StartScope(w, r, "serve.job", s.cfg.Process, s.cfg.TraceSample)}
	defer rq.release()
	defer func() {
		if !rq.answered { // a stage panicked: the trace still closes
			s.answer(rq, &answer{outcome: outAbandoned})
		}
	}()
	for i := range stages {
		st := &stages[i]
		if st.when != nil && !st.when(s, rq) {
			continue
		}
		if s.stageHook != nil {
			s.stageHook(st.name)
		}
		t0 := time.Now()
		if st.span != "" {
			rq.span = rq.scope.Child(st.span)
		}
		a := st.run(s, rq)
		rq.took[i], rq.ran = time.Since(t0), rq.ran|1<<i
		rq.endSpan()
		if a != nil {
			s.answer(rq, a)
			return
		}
	}
}

// answer ends one submission: it is the only code that moves a counter, a
// histogram, the SLO tracker or the service-time EWMA, and it does all of it
// before the response is written, so a client holding its answer can rely on
// the counters already showing it.
func (s *Server) answer(rq *request, a *answer) {
	rq.answered = true
	row := &outcomes[a.outcome]
	d := time.Since(rq.start)

	s.mu.Lock()
	s.counts[a.outcome]++
	if a.outcome == outOK {
		s.faultEvents += int64(a.resp.Result.FaultEvents)
		s.recovered += int64(a.resp.Result.Recovery.RetransPackets)
		// Service time: EWMA (α = 0.2) of run wall time, the basis of Retry-After.
		if run := rq.took[stRun]; s.ewma == 0 {
			s.ewma = run
		} else {
			s.ewma = time.Duration(0.8*float64(s.ewma) + 0.2*float64(run))
		}
	}
	s.mu.Unlock()
	for i := range stages {
		if rq.ran&(1<<i) != 0 && stages[i].metric != "" && (a.outcome == outOK || !stages[i].okOnly) {
			s.stageHist[i].ObserveDuration(rq.took[i])
		}
	}
	switch row.slo {
	case sloServed:
		s.jobHist.ObserveDuration(d)
		s.slo.Observe(d.Microseconds())
	case sloFailed:
		s.slo.Fail()
	}
	rq.scope.Finish(row.name)

	switch {
	case a.outcome == outAbandoned:
	case a.err == nil:
		a.resp.Key = rq.key
		writeJSON(rq.w, row.status, &a.resp)
	case row.status != 0:
		s.writeError(rq.w, row.status, a.err.Error())
	default:
		code, msg := errorClass(a.err)
		s.writeError(rq.w, code, msg)
	}
}

// decode resolves the body into a validated job and its key — the identity
// every later stage, the journal and the cluster's peers use.
func (s *Server) decode(rq *request) *answer {
	dec := json.NewDecoder(http.MaxBytesReader(rq.w, rq.r.Body, 1<<20))
	if err := dec.Decode(&rq.q); err != nil {
		return reject(outBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	job, err := BuildJob(s.cfg.Runner.Base, &rq.q)
	if err != nil {
		return reject(outBadRequest, err)
	}
	rq.job, rq.key = job, exp.JobKey(job.Cfg, job.Kernel.Name)
	rq.scope.SetAttr("bench", job.Kernel.Name)
	rq.scope.SetAttr("key", rq.key)
	return nil
}

// lookup is the idempotent fast path: a duplicate of a finished job — a
// client retry, or any job the journal already holds after a restart — is
// answered from the store without consuming a queue slot, even under
// overload or drain.
func (s *Server) lookup(rq *request) *answer {
	res, ok := s.cfg.Runner.LookupKey(rq.key)
	if !ok {
		return nil
	}
	rq.scope.Event("serve.journal_hit")
	return &answer{outcome: outCached, resp: JobResponse{Cached: true, Result: res}}
}

// estimate answers from the analytical model in microseconds — no queue
// slot, so estimates are never shed and work even while draining. Resubmitting
// without Estimate escalates to a real run under the same key, which later
// estimate-mode submissions then get exact from lookup.
func (s *Server) estimate(rq *request) *answer {
	est, err := analytic.EstimateOne(rq.job.Cfg, rq.job.Kernel)
	if err != nil {
		return reject(outBadRequest, fmt.Errorf("estimate: %w", err))
	}
	return &answer{outcome: outEstimated, resp: JobResponse{Estimated: true, Estimate: &est}}
}

// peerFetch asks the cluster peers, before spending an admission slot on a
// simulation, whether the job is already journaled anywhere. A hit is
// adopted into the local store (not counted as a run) so the next duplicate
// is a plain local hit. Peer errors fall through to a normal run: a
// partitioned replica keeps serving, it just stops sharing.
func (s *Server) peerFetch(rq *request) *answer {
	res, peer, ok := s.fetchFromPeers(rq.r.Context(), rq.key)
	rq.endSpan("hit", strconv.FormatBool(ok), "peer", peer)
	if !ok {
		return nil
	}
	if err := s.cfg.Runner.AdoptKey(rq.key, res); err != nil {
		// Journal write failure: still answer — the result is correct,
		// only the local durability is degraded.
		fmt.Fprintln(os.Stderr, "serve: adopt peer result:", err)
	}
	return &answer{outcome: outPeer, resp: JobResponse{Cached: true, Peer: peer, Result: res}}
}

// admit sheds instead of queueing unboundedly, and arms the admitted job's
// deadlines.
func (s *Server) admit(rq *request) *answer {
	if a := s.claimSlot(); a != nil {
		rq.endSpan("outcome", outcomes[a.outcome].name)
		return a
	}
	rq.endSpan("outcome", "admitted")
	ctx := rq.r.Context()
	if d := rq.q.Timeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		rq.cleanup = append(rq.cleanup, cancel)
	}
	ctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.rootCtx, cancel)
	rq.cleanup = append(rq.cleanup, func() {
		<-s.queue
		s.inflight.Done()
	}, cancel, func() { stop() })
	rq.ctx = ctx
	return nil
}

// awaitSlot waits (bounded by the queue slot) for an execution slot.
func (s *Server) awaitSlot(rq *request) *answer {
	select {
	case s.work <- struct{}{}:
		rq.cleanup = append(rq.cleanup, func() { <-s.work })
		return nil
	case <-rq.ctx.Done():
		rq.endSpan("cancelled", "true")
		return reject(outCancelled, rq.ctx.Err())
	}
}

// run simulates. Its span anchors the trace's NoC layer: a traced run's
// simulator gets packet collectors (read-only tracer hooks, so the Result
// stays byte-identical — TestTracedRunByteIdentical) and the sampled
// lifecycles land as child spans at 1 cycle = 1 µs from the span's start.
func (s *Server) run(rq *request) *answer {
	ctx, sp := rq.ctx, rq.span
	var req, rep *obs.Collector
	if rq.scope != nil && s.cfg.TracePackets > 0 {
		ctx = exp.WithInstrument(ctx, func(_ exp.Job, sim *core.Simulator) {
			req, rep = obs.AttachTracers(sim, uint64(s.cfg.PacketSample))
		})
	}
	res, err := s.cfg.Runner.RunKey(ctx, rq.key, rq.job)
	if err != nil {
		rq.endSpan("error", err.Error())
		return reject(outError, err)
	}
	rq.endSpan("scheme", rq.job.Cfg.Scheme.String(), "cycles", strconv.FormatInt(res.MeasuredCycles, 10))
	for _, c := range []*obs.Collector{rep, req} {
		for _, ps := range obs.PacketSpans(c, sp.Trace, sp.ID, s.cfg.Process, sp.StartUS, s.cfg.TracePackets) {
			s.spans.Record(ps)
		}
	}
	return &answer{outcome: outOK, resp: JobResponse{Result: res}}
}

// fetchFromPeers asks each peer in turn for the journaled result of key,
// bounded as a whole by PeerTimeout. First hit wins; every failure (refused
// connection, 404, bad body) just moves on — peers are an optimisation,
// never a dependency.
func (s *Server) fetchFromPeers(ctx context.Context, key string) (core.Result, string, bool) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
	defer cancel()
	for _, peer := range s.cfg.Peers {
		if ctx.Err() != nil {
			break
		}
		var out JobResponse
		raw, ok := GetOK(ctx, s.cfg.PeerClient, peer+"/v1/results/"+key, 4<<20)
		if ok && json.Unmarshal(raw, &out) == nil {
			return out.Result, peer, true
		}
	}
	return core.Result{}, "", false
}

// ClusterClient is the default client for every request one process of a
// cluster sends another: the gateway's proxying and probes, a replica's peer
// fetches. http.DefaultClient keeps two idle connections per host, so a
// gateway with more submissions than that in flight to one replica would
// dial anew for most of them.
var ClusterClient = func() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns, t.MaxIdleConnsPerHost = 0, 64 // no total cap; per host bounds it
	return &http.Client{Transport: t}
}()

// GetOK GETs url and returns its 200 body, at most limit bytes of it;
// ok is false on any failure. It is every best-effort read between the
// processes of a cluster: peer result fetches, health probes, federation.
func GetOK(ctx context.Context, hc *http.Client, url string, limit int64) (body []byte, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, limit))
	return body, err == nil
}
