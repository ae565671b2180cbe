// Package serve turns the hardened experiment harness into a long-lived
// simulation service: an HTTP job server that is robust by construction.
//
//   - Admission control: a bounded queue with load shedding. An overloaded
//     server answers 429 with a Retry-After derived from the observed
//     service time instead of queueing unboundedly — when buffers run out,
//     reject-and-retry beats unbounded queueing, exactly the deflection
//     argument the paper makes for bufferless reply fabrics.
//   - Deadlines end-to-end: a client-supplied deadline propagates via the
//     request context into the run's watchdog interrupt; an expired job is
//     cancelled at its next poll, never orphaned.
//   - Crash-only job store: job state rides the fsync'd JSONL journal, so
//     a SIGKILL'd server restarts with every completed job intact and
//     re-runs only what was in flight — byte-identically, because the
//     simulator is deterministic.
//   - Graceful drain: BeginDrain/Shutdown stop admission (readiness flips),
//     finish in-flight jobs under a deadline, then abort stragglers.
//
// Jobs are idempotent: they are keyed by exp.JobKey(config, benchmark), so
// a client may retry a submission any number of times — against the same
// or a restarted server — and pay for at most one simulation.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Runner executes (and caches/journals) the simulations. Required.
	// Attach a Journal to it to make the server crash-safe across restarts.
	Runner *exp.Runner

	// MaxInFlight bounds concurrently executing simulations (default
	// GOMAXPROCS: each run steps on one goroutine).
	MaxInFlight int

	// QueueDepth bounds jobs admitted but waiting for an execution slot.
	// 0 selects the default (2×MaxInFlight); negative means no waiting
	// slots at all — every job beyond MaxInFlight is shed.
	QueueDepth int

	// Monitor tracks executing runs for /metrics and /debug/nocstate. Nil
	// selects the Runner's monitor, or a fresh one installed on the Runner
	// (only when the Runner has none — an existing monitor is shared).
	Monitor *obs.RunMonitor

	// Peers lists sibling replica base URLs for cluster result sharing: on
	// a store miss the server asks each peer's GET /v1/results/<key> before
	// scheduling a simulation, so a job journaled on any replica is served
	// from every replica without re-running. Peer errors are ignored — a
	// replica partitioned from its peers degrades to serving its local
	// journal and running jobs itself, never to failing them.
	Peers []string

	// PeerTimeout bounds the whole peer-fetch pass across all peers
	// (default 1s). Keep it short: a dead peer must cost a connection
	// refusal, not a hung submission.
	PeerTimeout time.Duration

	// PeerClient overrides the HTTP client used for peer fetches.
	PeerClient *http.Client

	// TraceSample mints a distributed trace for 1 in N submissions that
	// arrive without an X-Ari-Trace context (0 disables minting; a valid
	// incoming context is always continued — the sender sampled).
	TraceSample int

	// TraceCap bounds the in-memory span recorder (obs.DefaultSpanCap
	// when 0).
	TraceCap int

	// TracePackets bounds the sampled NoC packet lifecycles linked into a
	// traced run's spans (default 256; negative disables packet linking).
	TracePackets int

	// PacketSample is the packet-tracer sampling stride for traced runs
	// (default 16: every 16th packet gets a lifecycle span).
	PacketSample int

	// Process names this replica in exported traces (default "ariserve");
	// give each cluster replica a distinct name so the merged Chrome trace
	// renders one process row per replica.
	Process string

	// SLOTarget is the submission-latency objective boundary: a 2xx answer
	// within it is a good event (default 30s — simulations are heavy).
	SLOTarget time.Duration

	// SLOGoal is the objective's target good fraction (default 0.99).
	SLOGoal float64
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Admitted is the number of jobs currently holding a queue slot
	// (executing + waiting).
	Admitted int `json:"admitted"`
	// Completed counts simulations finished by this process (cache and
	// journal hits excluded).
	Completed int64 `json:"completed"`
	// CacheHits counts submissions answered from the cache or journal.
	CacheHits int64 `json:"cache_hits"`
	// PeerHits counts submissions answered from a cluster peer's journal
	// via /v1/results, adopted locally without running.
	PeerHits int64 `json:"peer_hits"`
	// Estimated counts submissions answered by the analytical model
	// (estimate-mode requests that missed the store).
	Estimated int64 `json:"estimated"`
	// Shed counts submissions rejected with 429 because the queue was full.
	Shed int64 `json:"shed"`
	// Draining reports that admission is closed.
	Draining bool `json:"draining"`
	// ServiceTimeMs is the exponentially weighted moving average of
	// observed simulation wall time, the basis of Retry-After.
	ServiceTimeMs float64 `json:"service_time_ms"`
	// FaultEvents totals the injected NoC faults over every simulation this
	// process ran; RecoveredPackets totals their corrupted-and-retransmitted
	// packets (zero for fault-free configurations).
	FaultEvents      int64 `json:"fault_events"`
	RecoveredPackets int64 `json:"recovered_packets"`
}

// Server is the http.Handler implementing the job API:
//
//	POST /v1/jobs   submit a JobRequest, receive a JobResponse
//	GET  /v1/stats  server counters (Stats)
//	GET  /healthz   liveness: 200 while the process runs
//	GET  /readyz    readiness: 200 while admitting, 503 once draining
type Server struct {
	runner      *exp.Runner
	maxInFlight int
	queue       chan struct{} // admission slots (executing + waiting)
	work        chan struct{} // execution slots
	mux         *http.ServeMux
	monitor     *obs.RunMonitor
	started     time.Time
	peers       []string
	peerTimeout time.Duration
	peerClient  *http.Client

	spans        *obs.SpanRecorder
	traceSample  int
	traceSeq     atomic.Int64
	tracePackets int
	packetSample int
	process      string
	jobHist      obs.Histogram // full submission latency of 2xx answers, µs
	queueHist    obs.Histogram // wait for an execution slot, µs
	runHist      obs.Histogram // simulation wall time, µs
	slo          *obs.SLOTracker

	// traced maps job keys of in-flight traced runs to their collector
	// rendezvous (see tracedRun).
	traceMu sync.Mutex
	traced  map[string]*tracedRun

	// rootCtx is cancelled by Abort: every in-flight run aborts at its
	// next watchdog poll. This is the drain-deadline / simulated-crash path.
	rootCtx context.Context
	abort   context.CancelFunc

	mu          sync.Mutex
	draining    bool
	ewma        time.Duration
	completed   int64
	cacheHits   int64
	peerHits    int64
	estimated   int64
	shed        int64
	faultEvents int64
	recovered   int64
	inflight    sync.WaitGroup
}

// New builds a Server over cfg.Runner.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("serve: Config.Runner is required")
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = runtime.GOMAXPROCS(0)
	}
	queueDepth := cfg.QueueDepth
	switch {
	case queueDepth == 0:
		queueDepth = 2 * maxInFlight
	case queueDepth < 0:
		queueDepth = 0
	}
	monitor := cfg.Monitor
	if monitor == nil {
		monitor = cfg.Runner.Monitor
	}
	if monitor == nil {
		monitor = obs.NewRunMonitor()
	}
	if cfg.Runner.Monitor == nil {
		cfg.Runner.Monitor = monitor
	}
	peerTimeout := cfg.PeerTimeout
	if peerTimeout <= 0 {
		peerTimeout = time.Second
	}
	peerClient := cfg.PeerClient
	if peerClient == nil {
		peerClient = http.DefaultClient
	}
	tracePackets := cfg.TracePackets
	switch {
	case tracePackets == 0:
		tracePackets = 256
	case tracePackets < 0:
		tracePackets = 0
	}
	packetSample := cfg.PacketSample
	if packetSample <= 0 {
		packetSample = 16
	}
	process := cfg.Process
	if process == "" {
		process = "ariserve"
	}
	target := cfg.SLOTarget
	if target <= 0 {
		target = 30 * time.Second
	}
	goal := cfg.SLOGoal
	if goal <= 0 || goal >= 1 {
		goal = 0.99
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		runner:      cfg.Runner,
		maxInFlight: maxInFlight,
		queue:       make(chan struct{}, maxInFlight+queueDepth),
		work:        make(chan struct{}, maxInFlight),
		monitor:     monitor,
		started:     time.Now(),
		peers:       cfg.Peers,
		peerTimeout: peerTimeout,
		peerClient:  peerClient,
		spans:       obs.NewSpanRecorder(cfg.TraceCap),
		traceSample: cfg.TraceSample,
		tracePackets: tracePackets,
		packetSample: packetSample,
		process:     process,
		slo: obs.NewSLOTracker([]obs.Objective{
			{Name: "job_latency", Threshold: target.Microseconds(), Goal: goal},
		}),
		traced:  make(map[string]*tracedRun),
		rootCtx: ctx,
		abort:   cancel,
	}
	// Chain onto the runner's InstrumentJob seam so traced runs get packet
	// collectors. The runner may be shared (peers, tests): preserve any hook
	// already installed.
	prevInstrument := cfg.Runner.InstrumentJob
	cfg.Runner.InstrumentJob = func(j exp.Job, sim *core.Simulator) {
		if prevInstrument != nil {
			prevInstrument(j, sim)
		}
		s.instrumentJob(j, sim)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/results/", s.handleResults)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/nocstate", s.handleNoCState)
	s.mux.HandleFunc("/debug/spans", s.handleSpans)
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	s.mux.HandleFunc("/debug/slo", s.handleSLO)
	// pprof goes on the server's own mux — ariserve never serves the
	// DefaultServeMux, so the import's side-effect registrations alone
	// would be unreachable.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// BeginDrain closes admission: readiness flips to 503 and new submissions
// are rejected; jobs already admitted keep running.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether admission is closed.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Abort cancels every in-flight job immediately (each aborts at its next
// watchdog poll). Completed jobs are already synced to the journal, so an
// Abort loses only in-flight work — the crash-only exit path.
func (s *Server) Abort() { s.abort() }

// Wait blocks until every admitted job has finished, or ctx expires.
func (s *Server) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown drains gracefully: admission closes, in-flight jobs get until
// ctx's deadline to finish, then are aborted. It returns ctx's error when
// the deadline forced an abort, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if err := s.Wait(ctx); err != nil {
		s.Abort()
		// Bounded: every run aborts at its next watchdog poll.
		s.inflight.Wait()
		return err
	}
	return nil
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Admitted:         len(s.queue),
		Completed:        s.completed,
		CacheHits:        s.cacheHits,
		PeerHits:         s.peerHits,
		Estimated:        s.estimated,
		Shed:             s.shed,
		Draining:         s.draining,
		ServiceTimeMs:    float64(s.ewma) / float64(time.Millisecond),
		FaultEvents:      s.faultEvents,
		RecoveredPackets: s.recovered,
	}
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	start := time.Now()
	jt := s.startJobTrace(w, r)
	defer jt.finish("abandoned") // client gone before an answer; first finish wins

	var q JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&q); err != nil {
		jt.finish("bad_request")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	job, err := buildJob(s.runner.Base, &q)
	if err != nil {
		jt.finish("bad_request")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	key := exp.JobKey(job.Cfg, job.Kernel.Name)
	jt.setAttr("bench", job.Kernel.Name)
	jt.setAttr("key", key)

	// Idempotent fast path: a duplicate of a finished job — a client retry,
	// or any job the journal already holds after a restart — is answered
	// from the store without consuming a queue slot, even under overload
	// or drain.
	if res, ok := s.runner.Lookup(job.Cfg, job.Kernel.Name); ok {
		s.mu.Lock()
		s.cacheHits++
		s.mu.Unlock()
		jt.event("serve.journal_hit")
		s.answered(start)
		jt.finish("cached")
		writeJSON(w, http.StatusOK, JobResponse{Key: key, Cached: true, Result: res})
		return
	}

	// Estimate mode: answer from the analytical model in microseconds —
	// no queue slot, so estimates are never shed and work even while
	// draining. The client escalates to a real simulation by resubmitting
	// without Estimate; the JobKey stays the same, so the escalated run
	// lands in the journal and later estimate-mode lookups return it exact.
	if q.Estimate {
		est, err := analytic.EstimateOne(job.Cfg, job.Kernel)
		if err != nil {
			jt.finish("bad_request")
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "estimate: " + err.Error()})
			return
		}
		s.mu.Lock()
		s.estimated++
		s.mu.Unlock()
		s.answered(start)
		jt.finish("estimated")
		writeJSON(w, http.StatusOK, JobResponse{Key: key, Estimated: true, Estimate: &est})
		return
	}

	// Peer result-fetch: before spending an admission slot on a simulation,
	// ask the cluster peers whether the job is already journaled anywhere.
	// A hit is adopted into the local store (journal + cache, not counted as
	// a run) so the next duplicate is a plain local cache hit — and then
	// served exactly like one. Peer errors fall through to a normal run:
	// a partitioned replica keeps serving, it just stops sharing.
	if len(s.peers) > 0 {
		pf := jt.child("serve.peer_fetch")
		res, peer, ok := s.peerFetch(r.Context(), key)
		jt.endChild(pf, "hit", strconv.FormatBool(ok), "peer", peer)
		if ok {
			if err := s.runner.Adopt(job.Cfg, job.Kernel.Name, res); err != nil {
				// Journal write failure: still answer — the result is
				// correct, only the local durability is degraded.
				fmt.Fprintln(os.Stderr, "serve: adopt peer result:", err)
			}
			s.mu.Lock()
			s.peerHits++
			s.mu.Unlock()
			s.answered(start)
			jt.finish("peer")
			writeJSON(w, http.StatusOK, JobResponse{Key: key, Cached: true, Peer: peer, Result: res})
			return
		}
	}

	// Admission: shed instead of queueing unboundedly.
	adm := jt.child("serve.admission")
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		jt.endChild(adm, "outcome", "draining")
		s.slo.Fail()
		jt.finish("draining")
		s.reject(w, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case s.queue <- struct{}{}:
		s.inflight.Add(1)
		s.mu.Unlock()
		jt.endChild(adm, "outcome", "admitted")
	default:
		s.shed++
		s.mu.Unlock()
		jt.endChild(adm, "outcome", "shed")
		s.slo.Fail()
		jt.finish("shed")
		s.reject(w, http.StatusTooManyRequests, "admission queue full")
		return
	}
	defer func() {
		<-s.queue
		s.inflight.Done()
	}()

	// Deadline propagation: the client deadline (and disconnect) cancel via
	// the request context; a drain-deadline Abort cancels via rootCtx.
	ctx := r.Context()
	if d := q.Timeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopAfter := context.AfterFunc(s.rootCtx, cancel)
	defer stopAfter()

	// Wait (bounded by the queue slot) for an execution slot.
	qw := jt.child("serve.queue_wait")
	waitStart := time.Now()
	select {
	case s.work <- struct{}{}:
		s.queueHist.ObserveDuration(time.Since(waitStart))
		jt.endChild(qw)
	case <-ctx.Done():
		s.queueHist.ObserveDuration(time.Since(waitStart))
		jt.endChild(qw, "cancelled", "true")
		s.slo.Fail()
		jt.finish("cancelled")
		s.writeRunError(w, ctx.Err())
		return
	}
	defer func() { <-s.work }()

	// The run span is the anchor of the trace's NoC layer: when this traced
	// run builds a simulator, instrumentJob attaches packet collectors, and
	// the sampled lifecycles land as child spans anchored at the span's
	// wall-clock start (1 cycle = 1 µs).
	runSp := jt.child("serve.run")
	var tr *tracedRun
	if jt.active() && s.tracePackets > 0 {
		tr = &tracedRun{
			trace: runSp.Trace, parent: runSp.ID, process: s.process,
			startUS: runSp.StartUS, limit: s.tracePackets,
		}
		if !s.registerTraced(key, tr) {
			tr = nil // a concurrent traced duplicate owns the key
		}
	}
	runStart := time.Now()
	results, err := s.runner.RunAllContext(ctx, []exp.Job{job})
	if tr != nil {
		s.unregisterTraced(key)
	}
	if err != nil {
		jt.endChild(runSp, "error", err.Error())
		s.slo.Fail()
		jt.finish("error")
		s.writeRunError(w, err)
		return
	}
	s.observe(time.Since(runStart))
	jt.endChild(runSp,
		"scheme", job.Cfg.Scheme.String(),
		"cycles", strconv.FormatInt(results[0].MeasuredCycles, 10))
	if tr != nil {
		for _, ps := range tr.packetSpans() {
			s.spans.Record(ps)
		}
	}
	s.mu.Lock()
	s.faultEvents += int64(results[0].FaultEvents)
	s.recovered += int64(results[0].Recovery.RetransPackets)
	s.mu.Unlock()
	s.answered(start)
	jt.finish("ok")
	writeJSON(w, http.StatusOK, JobResponse{Key: key, Result: results[0]})
}

// handleResults serves GET /v1/results/<key>: the peer result-sharing
// endpoint. It answers strictly from the local store — cache and journal,
// never by running — so it is cheap, side-effect free, and loop-free (a
// peer answering a peer never fans out further). A replica keeps serving
// this endpoint while draining: its journal outlives its admission.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/results/")
	if key == "" || strings.Contains(key, "/") {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "want /v1/results/<job key>"})
		return
	}
	res, ok := s.runner.LookupKey(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job key"})
		return
	}
	writeJSON(w, http.StatusOK, JobResponse{Key: key, Cached: true, Result: res})
}

// peerFetch asks each peer in turn for the journaled result of key, bounded
// as a whole by PeerTimeout. First hit wins; every failure (refused
// connection, 404, bad body) just moves on — peers are an optimisation,
// never a dependency.
func (s *Server) peerFetch(ctx context.Context, key string) (core.Result, string, bool) {
	ctx, cancel := context.WithTimeout(ctx, s.peerTimeout)
	defer cancel()
	for _, peer := range s.peers {
		if ctx.Err() != nil {
			break
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/results/"+key, nil)
		if err != nil {
			continue
		}
		resp, err := s.peerClient.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		var out JobResponse
		err = json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&out)
		resp.Body.Close()
		if err != nil {
			continue
		}
		return out.Result, peer, true
	}
	return core.Result{}, "", false
}

// writeRunError maps a failed run onto a status code: deadline expiry is
// 504, cancellation (client gone, drain abort) is 503 — both retryable by
// an idempotent client — anything else is a terminal 500.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "job deadline exceeded: " + err.Error()})
	case errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "job cancelled: " + err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// reject sheds one submission with a Retry-After derived from the observed
// service time and current backlog.
func (s *Server) reject(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
	writeJSON(w, code, errorResponse{Error: msg})
}

// retryAfterSecs estimates when a shed client should come back: roughly one
// observed service time per backlogged job ahead of it, spread over the
// execution slots, floored at 1s.
func (s *Server) retryAfterSecs() int {
	s.mu.Lock()
	ewma := s.ewma
	s.mu.Unlock()
	if ewma <= 0 {
		return 1
	}
	secs := int(math.Ceil(ewma.Seconds() * float64(len(s.queue)+1) / float64(s.maxInFlight)))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// observe folds one completed simulation's wall time into the service-time
// EWMA (α = 0.2) and bumps the completion counter.
func (s *Server) observe(d time.Duration) {
	s.runHist.ObserveDuration(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed++
	if s.ewma == 0 {
		s.ewma = d
		return
	}
	s.ewma = time.Duration(0.8*float64(s.ewma) + 0.2*float64(d))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
