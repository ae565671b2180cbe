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
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Runner executes (and caches/journals) the simulations. Required.
	// Attach a Journal to it to make the server crash-safe across restarts.
	// Its Monitor (installed when nil) is the one /metrics and
	// /debug/nocstate read.
	Runner *exp.Runner

	// MaxInFlight bounds concurrently executing simulations (default
	// GOMAXPROCS: each run steps on one goroutine).
	MaxInFlight int

	// QueueDepth bounds jobs admitted but waiting for an execution slot.
	// 0 selects the default (2×MaxInFlight); negative means no waiting
	// slots at all — every job beyond MaxInFlight is shed.
	QueueDepth int

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
	cfg     Config        // as given to New, defaults filled in
	queue   chan struct{} // admission slots (executing + waiting)
	work    chan struct{} // execution slots
	mux     *http.ServeMux
	started time.Time

	spans     *obs.SpanRecorder
	jobHist   obs.Histogram            // full submission latency of served answers, µs
	stageHist [numStages]obs.Histogram // per-stage latency, µs (see stages)
	slo       *obs.SLOTracker

	// stageHook, when set (tests only), is called as a submission enters a
	// stage: the transition tests wait on instead of polling counters.
	stageHook func(stage string)

	// rootCtx is cancelled by Abort: every in-flight run aborts at its
	// next watchdog poll. This is the drain-deadline / simulated-crash path.
	rootCtx context.Context
	abort   context.CancelFunc

	mu          sync.Mutex
	draining    bool
	ewma        time.Duration
	counts      [numOutcomes]int64 // submissions answered, per outcome
	faultEvents int64
	recovered   int64
	inflight    sync.WaitGroup
}

// New builds a Server over cfg.Runner.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("serve: Config.Runner is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 2 * cfg.MaxInFlight
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	if cfg.Runner.Monitor == nil {
		cfg.Runner.Monitor = obs.NewRunMonitor()
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = time.Second
	}
	if cfg.PeerClient == nil {
		cfg.PeerClient = ClusterClient
	}
	switch {
	case cfg.TracePackets == 0:
		cfg.TracePackets = 256
	case cfg.TracePackets < 0:
		cfg.TracePackets = 0
	}
	if cfg.PacketSample <= 0 {
		cfg.PacketSample = 16
	}
	if cfg.Process == "" {
		cfg.Process = "ariserve"
	}
	if cfg.SLOTarget <= 0 {
		cfg.SLOTarget = 30 * time.Second
	}
	if cfg.SLOGoal <= 0 || cfg.SLOGoal >= 1 {
		cfg.SLOGoal = 0.99
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		queue:   make(chan struct{}, cfg.MaxInFlight+cfg.QueueDepth),
		work:    make(chan struct{}, cfg.MaxInFlight),
		started: time.Now(),
		spans:   obs.NewSpanRecorder(cfg.TraceCap),
		slo: obs.NewSLOTracker([]obs.Objective{
			{Name: "job_latency", Threshold: cfg.SLOTarget.Microseconds(), Goal: cfg.SLOGoal},
		}),
		rootCtx: ctx,
		abort:   cancel,
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
	s.mux.Handle("/debug/spans", s.spans)
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	s.mux.Handle("/debug/slo", s.slo)
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

// claimSlot admits one submission (nil) unless admission is closed or the
// queue is full. It shares s.mu with BeginDrain so that a submission either
// sees the drain or is counted in inflight before Wait can observe it.
func (s *Server) claimSlot() *answer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return reject(outDraining, errDraining)
	}
	select {
	case s.queue <- struct{}{}:
		s.inflight.Add(1)
		return nil
	default:
		return reject(outShed, errQueueFull)
	}
}

// Abort closes admission and cancels every in-flight job immediately (each
// aborts at its next watchdog poll). Completed jobs are already synced to
// the journal, so an Abort loses only in-flight work — the crash-only exit
// path. Closing admission first orders every inflight.Add before a later
// Wait, as BeginDrain does for Shutdown.
func (s *Server) Abort() {
	s.BeginDrain()
	s.abort()
}

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
	st := Stats{
		Admitted:         len(s.queue),
		Draining:         s.draining,
		ServiceTimeMs:    float64(s.ewma) / float64(time.Millisecond),
		FaultEvents:      s.faultEvents,
		RecoveredPackets: s.recovered,
	}
	for o, row := range outcomes {
		if row.stat != nil {
			*row.stat(&st) = s.counts[o]
		}
	}
	return st
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleResults serves GET /v1/results/<key>: the peer result-sharing
// endpoint. It answers strictly from the local store, never by
// running — so it is cheap, side-effect free, and loop-free (a
// peer answering a peer never fans out further). A replica keeps serving
// this endpoint while draining: its journal outlives its admission.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/results/")
	if key == "" || strings.Contains(key, "/") {
		WriteError(w, http.StatusBadRequest, "want /v1/results/<job key>")
		return
	}
	res, ok := s.cfg.Runner.LookupKey(key)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job key")
		return
	}
	writeJSON(w, http.StatusOK, JobResponse{Key: key, Cached: true, Result: res})
}

// writeError answers one non-2xx status; every 429 and 503 carries a
// Retry-After derived from the observed service time and current backlog.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
	}
	WriteError(w, code, msg)
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
	return max(1, int(math.Ceil(ewma.Seconds()*float64(len(s.queue)+1)/float64(s.cfg.MaxInFlight))))
}

// WriteError writes the JSON error body of every non-2xx answer, ariserve's
// and arigate's alike.
func WriteError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
