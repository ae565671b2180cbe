package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Config configures a Gateway.
type Config struct {
	// Base is the configuration jobs resolve against when they carry no
	// explicit Config — it must match the replicas' base, or the gateway
	// and the replicas would disagree on JobKeys. Required.
	Base core.Config

	// Replicas are the ariserve base URLs forming the cluster. Required.
	Replicas []string

	// Replication is how many distinct owners each key has on the ring —
	// the failover depth. Default 2, clamped to len(Replicas).
	Replication int

	// HedgeAfter races a secondary owner when the primary has not answered
	// within this long (default 250ms; negative disables hedging).
	// Idempotent jobs make the duplicate harmless, determinism makes both
	// answers identical — first one back wins.
	HedgeAfter time.Duration

	// ProbeInterval is the readyz health-probe cadence (default 500ms).
	ProbeInterval time.Duration

	// BreakerThreshold opens a replica's circuit after this many
	// consecutive failures (default 3).
	BreakerThreshold int

	// HTTPClient overrides the client used for proxying and probing.
	HTTPClient *http.Client

	// TraceSample enables distributed tracing for 1 in N submissions
	// (0 disables minting traces; 1 traces everything). A submission that
	// already carries a valid X-Ari-Trace header is always traced — the
	// caller made the sampling decision.
	TraceSample int

	// TraceCap bounds the in-memory span recorder (obs.DefaultSpanCap
	// when 0).
	TraceCap int
}

// Stats is a point-in-time snapshot of the gateway's counters.
type Stats struct {
	// Requests counts job submissions accepted for routing.
	Requests int64 `json:"requests"`
	// Shed counts submissions answered 429 because every owner of the key
	// was down or shedding.
	Shed int64 `json:"shed"`
	// Failovers counts attempts launched because a prior owner failed or
	// shed; Hedges counts attempts launched because a prior owner was slow.
	Failovers int64 `json:"failovers"`
	Hedges    int64 `json:"hedges"`
	// HedgeWins counts requests whose winning answer came from a hedged
	// attempt.
	HedgeWins int64 `json:"hedge_wins"`
	// Replicas is the per-replica routing + health table.
	Replicas []ReplicaStats `json:"replicas"`
}

// ReplicaStats is one replica's row in Stats.
type ReplicaStats struct {
	ReplicaHealth
	// Routed counts attempts sent to this replica (including failed ones).
	Routed int64 `json:"routed"`
}

// Gateway is the arigate front door: an http.Handler that routes job
// submissions to ariserve replicas by consistent hash over their JobKey,
// with health-checked failover, hedging, and load shedding.
//
//	POST /v1/jobs   route a JobRequest to its owner replicas
//	GET  /v1/stats  routing/failover/hedge counters (Stats)
//	GET  /healthz   liveness of the gateway process
//	GET  /readyz    200 while >= 1 replica is routable, else 503
//	GET  /metrics   Prometheus text: routing, failover, hedge, per-replica
type Gateway struct {
	cfg     Config // as given to New, defaults filled in
	ring    *Ring
	health  *Health
	mux     *http.ServeMux
	started time.Time

	spans       *obs.SpanRecorder
	routeHist   obs.Histogram // end-to-end routing latency, µs
	attemptHist obs.Histogram // per-proxied-attempt latency, µs

	mu        sync.Mutex
	requests  int64
	counts    [numOutcomes]int64 // routed submissions answered, per outcome
	failovers int64
	hedges    int64
	hedgeWins int64
	routed    map[string]int64
}

// New builds a Gateway; call Start to begin health probing and Close to
// stop it.
func New(cfg Config) (*Gateway, error) {
	ring, err := NewRing(cfg.Replicas, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	cfg.Replication = min(cfg.Replication, len(ring.replicas))
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 250 * time.Millisecond
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = serve.ClusterClient
	}
	g := &Gateway{
		cfg:     cfg,
		ring:    ring,
		health:  NewHealth(ring.Replicas(), cfg.BreakerThreshold, cfg.ProbeInterval, cfg.HTTPClient),
		started: time.Now(),
		spans:   obs.NewSpanRecorder(cfg.TraceCap),
		routed:  make(map[string]int64, len(cfg.Replicas)),
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/v1/jobs", g.handleJobs)
	g.mux.HandleFunc("/v1/stats", g.handleStats)
	g.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	g.mux.HandleFunc("/readyz", g.handleReady)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/metrics/cluster", g.handleClusterMetrics)
	g.mux.Handle("/debug/spans", g.spans)
	g.mux.HandleFunc("/debug/trace", g.handleTrace)
	return g, nil
}

// Start launches the background health probes.
func (g *Gateway) Start() { g.health.Start() }

// Close stops the health probes.
func (g *Gateway) Close() { g.health.Close() }

// Ring exposes the routing ring (tests, tooling).
func (g *Gateway) Ring() *Ring { return g.ring }

// Health exposes the health tracker (tests, tooling).
func (g *Gateway) Health() *Health { return g.health }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	rows := g.health.Snapshot()
	g.mu.Lock()
	defer g.mu.Unlock()
	st := Stats{
		Requests:  g.requests,
		Shed:      g.counts[outShed],
		Failovers: g.failovers,
		Hedges:    g.hedges,
		HedgeWins: g.hedgeWins,
		Replicas:  make([]ReplicaStats, 0, len(rows)),
	}
	for _, row := range rows {
		st.Replicas = append(st.Replicas, ReplicaStats{ReplicaHealth: row, Routed: g.routed[row.URL]})
	}
	return st
}

func (g *Gateway) handleReady(w http.ResponseWriter, _ *http.Request) {
	if g.health.UpCount() == 0 {
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusServiceUnavailable, "no routable replicas")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.Stats())
}

// attemptResult is one proxied attempt's outcome.
type attemptResult struct {
	replica    string
	hedged     bool
	err        error // transport failure; status fields unset
	status     int
	retryAfter int
	// retryAfterRaw is the replica's Retry-After header verbatim. The
	// parsed integer only feeds the gateway's own max-of-owners shed hint;
	// relays forward the raw value so HTTP-date (or otherwise unparseable)
	// hints survive the proxy.
	retryAfterRaw string
	contentType   string
	body          []byte
}

// outcome is how a routed submission ended.
type outcome int

const (
	outOK         outcome = iota // an owner answered 2xx: relayed verbatim
	outRejected                  // an owner answered a deterministic 4xx: relayed verbatim
	outError                     // an owner answered a deterministic 5xx: relayed verbatim
	outShed                      // every owner is down or shedding: 429 + Retry-After
	outAbandoned                 // the client went away first: nothing written
	outBadRequest                // the gateway refused the request itself: 405 or 400, never routed
	numOutcomes
)

// outcomes describes every way a submission can end. name is the
// gateway.route span's outcome attr (a relayed answer appends its status)
// and the arigate_routes_total{outcome} label.
var outcomes = [numOutcomes]struct {
	name  string
	timed bool // latency observed in arigate_route_seconds
}{
	outOK:         {name: "ok", timed: true},
	outRejected:   {name: "rejected"},
	outError:      {name: "error"},
	outShed:       {name: "shed"},
	outAbandoned:  {name: "abandoned"},
	outBadRequest: {name: "bad_request"},
}

// routing is one submission on its way through the gateway.
type routing struct {
	w        http.ResponseWriter
	start    time.Time
	scope    *obs.Scope // nil when untraced
	answered bool
}

// answer ends one submission: the only code that moves an outcome counter
// or the route histogram, closes the root span and writes the response. res
// is the owner's answer being relayed (ok, rejected, error), for a shed just
// the Retry-After hints the owners offered, and for a bad request the
// gateway's own status and message.
func (g *Gateway) answer(rt *routing, o outcome, res attemptResult) {
	rt.answered = true
	name := outcomes[o].name
	if o == outRejected || o == outError {
		name += " " + strconv.Itoa(res.status)
	}
	g.mu.Lock()
	g.counts[o]++
	if o == outOK && res.hedged {
		g.hedgeWins++
	}
	g.mu.Unlock()
	if outcomes[o].timed {
		g.routeHist.ObserveDuration(time.Since(rt.start))
	}
	rt.scope.Finish(name)

	switch o {
	case outOK, outRejected, outError:
		relay(rt.w, res)
	case outShed:
		switch {
		case res.retryAfter >= 1:
			rt.w.Header().Set("Retry-After", strconv.Itoa(res.retryAfter))
		case res.retryAfterRaw != "":
			rt.w.Header().Set("Retry-After", res.retryAfterRaw)
		default:
			rt.w.Header().Set("Retry-After", "1")
		}
		serve.WriteError(rt.w, http.StatusTooManyRequests, "all owners of this job are down or shedding")
	case outBadRequest:
		serve.WriteError(rt.w, res.status, string(res.body))
	}
}

// refuse answers a submission the gateway will not route: no owner is asked
// and no span is opened.
func (g *Gateway) refuse(w http.ResponseWriter, status int, msg string) {
	g.answer(&routing{w: w}, outBadRequest, attemptResult{status: status, body: []byte(msg)})
}

// handleJobs routes one submission: consistent-hash owners, healthy-first,
// hedged when slow, failing over on shed/unavailable/transport errors, and
// shedding 429 + Retry-After itself when every owner is out.
func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		g.refuse(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		g.refuse(w, http.StatusBadRequest, "read request body: "+err.Error())
		return
	}
	var q serve.JobRequest
	if err := serve.DecodeJobRequest(bytes.NewReader(body), &q); err != nil {
		g.refuse(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// Resolve the job exactly as a replica would, so the routing key IS the
	// idempotency key: every duplicate of a job lands on the same owners.
	job, err := serve.BuildJob(g.cfg.Base, &q)
	if err != nil {
		g.refuse(w, http.StatusBadRequest, err.Error())
		return
	}
	key := exp.JobKey(job.Cfg, job.Kernel.Name)

	// The root span brackets the whole routing decision.
	rt := &routing{w: w, start: time.Now(),
		scope: g.spans.StartScope(w, r, "gateway.route", "arigate", g.cfg.TraceSample)}
	rt.scope.SetAttr("bench", job.Kernel.Name)
	rt.scope.SetAttr("key", key)
	defer func() {
		if !rt.answered { // client gone before an answer
			g.answer(rt, outAbandoned, attemptResult{})
		}
	}()

	owners := g.ring.Owners(key, g.cfg.Replication)
	cands := owners[:0]
	for _, o := range owners {
		if g.health.Up(o) {
			cands = append(cands, o)
		}
	}
	g.mu.Lock()
	g.requests++
	g.mu.Unlock()
	if len(cands) == 0 {
		g.answer(rt, outShed, attemptResult{})
		return
	}

	// Proxy with hedging + failover. The per-request context cancels every
	// losing attempt the moment an answer is relayed.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	results := make(chan attemptResult, len(cands))
	next, pending, scope := 0, 0, rt.scope
	// launch sends the next candidate an attempt, if one is left, counting
	// it in *because (failovers, hedges; nil for the first attempt).
	launch := func(hedged bool, because *int64) {
		if next >= len(cands) {
			return
		}
		rep := cands[next]
		next++
		pending++
		g.mu.Lock()
		g.routed[rep]++
		if because != nil {
			*because++
		}
		g.mu.Unlock()
		// Each attempt gets its own child span and propagates it to the
		// replica, so the replica's spans parent under the attempt that
		// reached it — hedge legs share the trace ID but not span IDs.
		att := scope.Child("gateway.attempt")
		var attCtx string
		if scope != nil {
			att.SetAttr("replica", rep)
			if hedged {
				att.SetAttr("hedged", "true")
			}
			attCtx = att.Context().String()
		}
		go func() {
			t0 := time.Now()
			res := g.forward(ctx, rep, body, hedged, attCtx)
			g.attemptHist.ObserveDuration(time.Since(t0))
			if scope != nil {
				// The span closes here even when this leg lost the race and
				// was cancelled: a hedge's loser leaves a span marked
				// cancelled, never a dangling one.
				switch {
				case res.err == nil:
					scope.EndChild(att, "status", strconv.Itoa(res.status))
				case ctx.Err() != nil:
					scope.EndChild(att, "error", res.err.Error(), "cancelled", "true")
				default:
					scope.EndChild(att, "error", res.err.Error())
				}
			}
			results <- res
		}()
	}
	launch(false, nil)

	var hedgeC <-chan time.Time
	if g.cfg.HedgeAfter > 0 && len(cands) > 1 {
		t := time.NewTimer(g.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	// What the owners offer while shedding: the max parsed Retry-After and,
	// failing any parseable one, the last raw header — an HTTP-date hint
	// must reach the client, not vanish here.
	var hints attemptResult
	for pending > 0 {
		select {
		case res := <-results:
			pending--
			if res.err != nil {
				if ctx.Err() != nil {
					return // client gone; nothing to answer
				}
				// Transport failure: the restart/death signature. Feed the
				// breaker and re-route to the next owner.
				g.health.ReportFailure(res.replica)
				launch(false, &g.failovers)
				continue
			}
			g.health.ReportSuccess(res.replica)
			switch {
			case res.status >= 200 && res.status < 300:
				g.answer(rt, outOK, res)
				return
			case res.status == http.StatusTooManyRequests ||
				res.status == http.StatusServiceUnavailable ||
				res.status == http.StatusBadGateway ||
				res.status == http.StatusGatewayTimeout:
				// The owner is alive but shedding or draining: degrade
				// sideways to the next owner before degrading to a shed,
				// keeping every hint the owners offered.
				hints.retryAfter = max(hints.retryAfter, res.retryAfter)
				if res.retryAfter == 0 && res.retryAfterRaw != "" {
					hints.retryAfterRaw = res.retryAfterRaw
				}
				launch(false, &g.failovers)
			default:
				// Deterministic rejection (malformed job, simulation
				// failure): identical on every replica, so relay verbatim —
				// failing over would only duplicate the failure.
				o := outRejected
				if res.status >= 500 {
					o = outError
				}
				g.answer(rt, o, res)
				return
			}
		case <-hedgeC:
			hedgeC = nil
			launch(true, &g.hedges)
		case <-ctx.Done():
			return // client gone
		}
	}
	// Every owner of this key is down or shedding: shed with the most
	// pessimistic Retry-After any owner offered.
	g.answer(rt, outShed, hints)
}

// forward performs one proxied POST /v1/jobs round trip to replica.
// traceCtx, when non-empty, is the attempt's X-Ari-Trace value — the replica
// parents its spans under this attempt.
func (g *Gateway) forward(ctx context.Context, replica string, body []byte, hedged bool, traceCtx string) attemptResult {
	out := attemptResult{replica: replica, hedged: hedged}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if traceCtx != "" {
		req.Header.Set(obs.TraceHeader, traceCtx)
	}
	resp, err := g.cfg.HTTPClient.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		out.err = err
		return out
	}
	out.status = resp.StatusCode
	out.contentType = resp.Header.Get("Content-Type")
	out.body = raw
	out.retryAfterRaw = resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(out.retryAfterRaw); err == nil && secs > 0 {
		out.retryAfter = secs
	}
	return out
}

// relay copies one replica answer to the client verbatim. Retry-After is
// forwarded as the replica sent it — re-serialising the parsed integer would
// drop HTTP-date hints.
func relay(w http.ResponseWriter, res attemptResult) {
	ct := res.contentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	if res.retryAfterRaw != "" {
		w.Header().Set("Retry-After", res.retryAfterRaw)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}
