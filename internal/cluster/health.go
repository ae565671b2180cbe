package cluster

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// Health actively tracks replica liveness: a probe loop GETs each
// replica's /readyz on an interval, and the gateway reports the outcome of
// every proxied request. A per-replica failure-count circuit breaker opens
// after Threshold consecutive failures — the replica stops receiving
// traffic — and the probe loop doubles as the half-open path: probes keep
// flowing to an open replica, and the first success closes the circuit.
type Health struct {
	replicas  []string
	threshold int
	interval  time.Duration
	client    *http.Client

	mu    sync.Mutex
	state map[string]*replicaState

	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	started bool
}

type replicaState struct {
	fails    int   // consecutive failures (probes + proxied requests)
	open     bool  // circuit open: excluded from routing
	probes   int64 // total probes sent
	failures int64 // total failures observed
}

// ReplicaHealth is one replica's row in Snapshot.
type ReplicaHealth struct {
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Fails    int    `json:"consecutive_fails"`
	Probes   int64  `json:"probes"`
	Failures int64  `json:"failures"`
}

// NewHealth builds a tracker for replicas; Start launches the probe loop.
// threshold <= 0 selects 3 consecutive failures; interval <= 0 selects
// 500ms. Replicas start closed (routable): the first probe, not a cold
// start, decides their fate.
func NewHealth(replicas []string, threshold int, interval time.Duration, hc *http.Client) *Health {
	if threshold <= 0 {
		threshold = 3
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if hc == nil {
		hc = serve.ClusterClient
	}
	h := &Health{
		replicas:  append([]string(nil), replicas...),
		threshold: threshold,
		interval:  interval,
		client:    hc,
		state:     make(map[string]*replicaState, len(replicas)),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, r := range h.replicas {
		h.state[r] = &replicaState{}
	}
	return h
}

// Start launches the background probe loop. Call Close to stop it.
func (h *Health) Start() {
	h.mu.Lock()
	h.started = true
	h.mu.Unlock()
	go func() {
		defer close(h.done)
		// Probe immediately so a gateway booted against a dead replica set
		// learns it within one interval, not threshold intervals.
		h.probeAll()
		t := time.NewTicker(h.interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.probeAll()
			}
		}
	}()
}

// Close stops the probe loop (if started) and waits for it to exit.
func (h *Health) Close() {
	h.once.Do(func() { close(h.stop) })
	h.mu.Lock()
	started := h.started
	h.mu.Unlock()
	if started {
		<-h.done
	}
}

func (h *Health) probeAll() {
	var wg sync.WaitGroup
	for _, r := range h.replicas {
		wg.Add(1)
		go func(r string) {
			defer wg.Done()
			h.probe(r)
		}(r)
	}
	wg.Wait()
}

func (h *Health) probe(replica string) {
	ctx, cancel := context.WithTimeout(context.Background(), h.interval)
	defer cancel()
	// A draining replica answers readyz 503: it is alive but refusing new
	// work, which for routing purposes is the same as down.
	_, ok := serve.GetOK(ctx, h.client, replica+"/readyz", 1<<10)
	h.record(replica, ok, true)
}

// ReportSuccess feeds a successful proxied request into the breaker: any
// response at all proves the replica alive, closing its circuit.
func (h *Health) ReportSuccess(replica string) { h.record(replica, true, false) }

// ReportFailure feeds a failed proxied request (transport error) into the
// breaker.
func (h *Health) ReportFailure(replica string) { h.record(replica, false, false) }

func (h *Health) record(replica string, ok, probe bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state[replica]
	if st == nil {
		return // unknown replica: not ours to track
	}
	if probe {
		st.probes++
	}
	if ok {
		st.fails = 0
		st.open = false
		return
	}
	st.failures++
	st.fails++
	if st.fails >= h.threshold {
		st.open = true
	}
}

// Up reports whether replica's circuit is closed (routable).
func (h *Health) Up(replica string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state[replica]
	return st != nil && !st.open
}

// UpCount returns the number of routable replicas.
func (h *Health) UpCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, st := range h.state {
		if !st.open {
			n++
		}
	}
	return n
}

// Snapshot returns every replica's health row, sorted by URL.
func (h *Health) Snapshot() []ReplicaHealth {
	h.mu.Lock()
	out := make([]ReplicaHealth, 0, len(h.state))
	for r, st := range h.state {
		out = append(out, ReplicaHealth{
			URL: r, Up: !st.open, Fails: st.fails,
			Probes: st.probes, Failures: st.failures,
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
