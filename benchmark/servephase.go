package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/serve"
)

const gatewayURL = "http://gateway"

// clientCount is the closed-loop client and sweep worker count. Real
// callers (arisweep -server, client.Submit) wait for each reply, hence a
// closed loop; more clients than CPUs would only measure the scheduler.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// servingCluster is the in-process stack over loopback: two journalled,
// peered serve.Server replicas behind one cluster.Gateway.
type servingCluster struct {
	e        *env
	client   *http.Client
	replicas []*serve.Server
	journals []*exp.Journal
	gateway  *cluster.Gateway
	servers  []*http.Server
	served   sync.WaitGroup
}

// startCluster builds the stack under dir and waits until the gateway and
// both replicas answer /readyz.
func (e *env) startCluster(dir string) (*servingCluster, error) {
	c := &servingCluster{e: e}
	names := append([]string{gatewayURL}, replicaURLs...)
	// Every listener exists before anything dials, so the name table is
	// complete before the peers and the health probes read it.
	addrs := map[string]string{} // "replica-a:80" -> loopback listener
	listeners := map[string]net.Listener{}
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, err
		}
		listeners[name] = ln
		addrs[name[len("http://"):]+":80"] = ln.Addr().String()
	}
	dialer := &net.Dialer{}
	c.client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, addrs[addr])
		},
		MaxIdleConnsPerHost: 4 * e.clients,
	}}
	handlers := map[string]http.Handler{}
	var err error
	for i, name := range replicaURLs {
		var r *exp.Runner
		if r, err = e.newRunner(filepath.Join(dir, fmt.Sprintf("replica-%d.jsonl", i))); err != nil {
			break
		}
		c.journals = append(c.journals, r.Journal)
		var s *serve.Server
		s, err = serve.New(serve.Config{
			Runner:      r,
			MaxInFlight: 1,
			// Deep enough that the closed loop is never shed.
			QueueDepth:   2 * e.clients,
			Peers:        []string{replicaURLs[1-i]},
			PeerClient:   c.client,
			Process:      "ariserve-" + name[len("http://replica-"):],
			TraceCap:     1 << 16,
			TracePackets: -1, // packet tracers would slow the traced cold runs
		})
		if err != nil {
			break
		}
		c.replicas = append(c.replicas, s)
		handlers[name] = s
	}
	if err == nil {
		c.gateway, err = cluster.New(cluster.Config{
			Base:        e.base,
			Replicas:    replicaURLs,
			Replication: 2,
			HedgeAfter:  -1, // a hedge would run a cold job twice
			HTTPClient:  c.client,
			TraceCap:    1 << 16,
		})
		handlers[gatewayURL] = c.gateway
	}
	if err != nil {
		for _, l := range listeners {
			l.Close()
		}
		c.stop()
		return nil, err
	}
	for _, name := range names {
		hs, ln := &http.Server{Handler: handlers[name]}, listeners[name]
		c.servers = append(c.servers, hs)
		c.served.Add(1)
		go func() {
			defer c.served.Done()
			hs.Serve(ln) // returns ErrServerClosed from stop
		}()
	}
	c.gateway.Start()
	for _, name := range names {
		if err := c.waitReady(name); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *servingCluster) waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz: %w", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the replicas, closes every listener and waits for the
// serving goroutines to end.
func (c *servingCluster) stop() {
	if c.gateway != nil {
		c.gateway.Close()
	}
	if c.client != nil {
		defer c.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range c.replicas {
		s.Shutdown(ctx) // on timeout it aborts the runs itself
	}
	for _, hs := range c.servers {
		hs.Close()
	}
	c.served.Wait()
	for _, j := range c.journals {
		j.Close()
	}
}

// phase names one kind of request and what a correct answer looks like.
type phase struct {
	name string
	// bodies caches, per job, the first verified response body: identical
	// requests get byte-identical answers, so later ones are compared
	// without decoding.
	bodies []atomic.Pointer[[]byte]
}

func (e *env) newPhase(name string) *phase {
	return &phase{name: name, bodies: make([]atomic.Pointer[[]byte], len(e.jobs))}
}

// request is one submission: job i of the list, sent to base.
type request struct {
	job   int
	base  string
	trace string // X-Ari-Trace value, "" for an untraced request
}

type reply struct {
	Key       string          `json:"key"`
	Cached    bool            `json:"cached"`
	Peer      string          `json:"peer"`
	Estimated bool            `json:"estimated"`
	Result    json.RawMessage `json:"result"`
	Estimate  json.RawMessage `json:"estimate"`
}

// verify decodes one answer and checks the flags its phase expects and the
// Result bytes against the job's reference.
func (p *phase) verify(e *env, q request, status int, body []byte) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d: %.120s", status, body)
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return err.Error()
	}
	j := e.jobs[q.job]
	flags := fmt.Sprintf("cached=%v peer=%q estimated=%v", r.Cached, r.Peer, r.Estimated)
	switch p.name {
	case "estimate":
		if !r.Estimated || len(r.Estimate) == 0 || r.Key == j.key {
			return "not a fresh estimate: " + flags
		}
		return ""
	case "cold":
		if r.Cached || r.Estimated || r.Peer != "" {
			return "not a cold run: " + flags
		}
	case "peer":
		if !r.Cached || r.Peer != replicaURLs[j.owner] {
			return "not a peer hit from the owner: " + flags
		}
	default: // hit, hit-direct
		if !r.Cached || r.Estimated || r.Peer != "" {
			return "not a local hit: " + flags
		}
	}
	if r.Key != j.key {
		return "wrong key"
	}
	if !bytes.Equal(r.Result, j.result) {
		return "Result differs from the direct simulation's"
	}
	return ""
}

// drive sends reqs from a closed loop of e.clients clients and returns the
// per-request latencies and the phase's wall time. Every request is one
// checked operation. sent, when non-nil, receives each request's send time.
func (c *servingCluster) drive(p *phase, reqs []request, sent []time.Time) (lat []time.Duration, wall time.Duration) {
	e := c.e
	lat = make([]time.Duration, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < e.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				q := reqs[i]
				body := e.jobs[q.job].hitBody
				if p.name == "estimate" {
					body = e.jobs[q.job].estBody
				}
				t := time.Now()
				status, got, err := c.post(q, body)
				lat[i] = time.Since(t)
				if sent != nil {
					sent[i] = t
				}
				fail := ""
				if err != nil {
					fail = err.Error()
				} else if want := p.bodies[q.job].Load(); want == nil || !bytes.Equal(got, *want) {
					if fail = p.verify(e, q, status, got); fail == "" {
						p.bodies[q.job].Store(&got)
					}
				}
				e.rec.check(fail == "", "%s %s: %s", p.name, e.jobs[q.job].Kernel.Name, fail)
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(t0)
}

func (c *servingCluster) post(q request, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, q.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if q.trace != "" {
		req.Header.Set(obs.TraceHeader, q.trace)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return resp.StatusCode, got, err
}

// coldRequests is every job once, in list order, through the gateway.
func (e *env) coldRequests() []request {
	reqs := make([]request, len(e.jobs))
	for i := range reqs {
		reqs[i] = request{job: i, base: gatewayURL}
	}
	return reqs
}

// sliceRequests is one slice of sliceReqs requests cycling through the
// -seed-shuffled job order, starting where slice n-1 stopped.
func (e *env) sliceRequests(n int, direct bool) []request {
	reqs := make([]request, e.sliceReqs)
	for i := range reqs {
		j := e.hitOrder[(n*e.sliceReqs+i)%len(e.hitOrder)]
		reqs[i] = request{job: j, base: gatewayURL}
		if direct {
			reqs[i].base = replicaURLs[e.jobs[j].owner]
		}
	}
	return reqs
}

// coldPhase is the sweep client's path through arigate: every job once,
// none of them seen before.
func (c *servingCluster) coldPhase() {
	e := c.e
	_, wall := c.drive(e.newPhase("cold"), e.coldRequests(), nil)
	e.rec.add("cold_jobs_per_s", float64(len(e.jobs))/wall.Seconds())
	c.reconcile(false)
}

// withTraces gives every request its own trace, rooted at a client span
// whose ID the server spans will name as their parent. The IDs are drawn
// before the phase is timed.
func withTraces(reqs []request) ([]request, []obs.Span) {
	spans := make([]obs.Span, len(reqs))
	for i := range reqs {
		spans[i] = obs.StartSpan(obs.NewTraceID(), "", "client.request", "aribench")
		reqs[i].trace = obs.TraceContext{Trace: spans[i].Trace, Span: spans[i].ID}.String()
	}
	return reqs, spans
}

// driveTraced is drive with every request traced; the client spans are
// kept for -trace-out.
func (c *servingCluster) driveTraced(p *phase, reqs []request) ([]time.Duration, time.Duration) {
	reqs, spans := withTraces(reqs)
	sent := make([]time.Time, len(reqs))
	lat, wall := c.drive(p, reqs, sent)
	for i := range spans {
		spans[i].Name = "client." + p.name
		spans[i].StartUS = sent[i].UnixMicro()
		spans[i].DurUS = lat[i].Microseconds()
		c.e.rec.span(spans[i])
	}
	return lat, wall
}

// addLatencies records lat, in milliseconds, as samples of name and
// returns them.
func addLatencies(rec *recorder, name string, lat []time.Duration) []float64 {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = ms(d)
	}
	rec.add(name, xs...)
	return xs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const slicesPerRound = 3

// tracedServePhases is every serving path, one request at a time: the cold
// phase with client-sent trace contexts (the replicas and the gateway always
// continue an incoming context), journal hits (the cold keys in a
// -seed-shuffled order) and estimates (never-run neighbour keys) in
// interleaved slices, the peer-fetch and owner-direct paths; then the spans
// the servers recorded become per-stage self times.
func (c *servingCluster) tracedServePhases() error {
	e := c.e
	lat, _ := c.driveTraced(e.newPhase("cold"), e.coldRequests())
	addLatencies(e.rec, "serve.cold_ms", lat)

	hit, est := e.newPhase("hit"), e.newPhase("estimate")
	var plainRate, tracedRate, hitLat []float64
	for s := 0; s < slicesPerRound; s++ {
		cpu := cpuTime()
		lat, wall := c.drive(hit, e.sliceRequests(s, false), nil)
		e.rec.add("serve.cpu_us_per_hit", us(cpuTime()-cpu)/float64(e.sliceReqs))
		hitLat = append(hitLat, addLatencies(e.rec, "serve.hit_ms", lat)...)
		plainRate = append(plainRate, float64(e.sliceReqs)/wall.Seconds())
		e.rec.add("serve.hit_jobs_per_s", float64(e.sliceReqs)/wall.Seconds())

		_, wall = c.driveTraced(hit, e.sliceRequests(s, false))
		tracedRate = append(tracedRate, float64(e.sliceReqs)/wall.Seconds())

		cpu = cpuTime()
		lat, wall = c.drive(est, e.sliceRequests(s, false), nil)
		e.rec.add("serve.estimate_jobs_per_s", float64(e.sliceReqs)/wall.Seconds())
		e.rec.add("serve.cpu_us_per_estimate", us(cpuTime()-cpu)/float64(e.sliceReqs))
		addLatencies(e.rec, "serve.estimate_ms", lat)
	}
	e.rec.add("serve.trace_overhead_pct", 100*(median(plainRate)/median(tracedRate)-1))

	// Peer path: each key straight to the replica that does not own it.
	peers := e.coldRequests()
	for i := range peers {
		peers[i].base = replicaURLs[1-e.jobs[i].owner]
	}
	lat, _ = c.driveTraced(e.newPhase("peer"), peers)
	addLatencies(e.rec, "serve.peer_ms", lat)

	var directLat []float64
	direct := e.newPhase("hit-direct")
	for s := 0; s < slicesPerRound; s++ {
		lat, _ = c.drive(direct, e.sliceRequests(s, true), nil)
		directLat = append(directLat, addLatencies(e.rec, "serve.hit_direct_ms", lat)...)
	}
	e.rec.add("cluster.route_overhead_us", 1000*(median(hitLat)-median(directLat)))

	c.reconcile(true)
	return c.stageTimes()
}

// reconcile checks the servers' own counters against what the phases sent
// and, in the traced pass, records them.
func (c *servingCluster) reconcile(traced bool) {
	e := c.e
	var st serve.Stats
	for _, s := range c.replicas {
		x := s.Stats()
		st.Completed += x.Completed
		st.CacheHits += x.CacheHits
		st.PeerHits += x.PeerHits
		st.Estimated += x.Estimated
		st.Shed += x.Shed
	}
	gs := c.gateway.Stats()
	n := int64(len(e.jobs))
	wantPeer := int64(0)
	if traced {
		wantPeer = n
	}
	e.rec.check(st.Completed == n && st.PeerHits == wantPeer && st.Shed == 0 && gs.Shed == 0,
		"server counters: completed %d (want %d) peer_hits %d (want %d) shed %d gateway shed %d",
		st.Completed, n, st.PeerHits, wantPeer, st.Shed, gs.Shed)
	if !traced {
		return
	}
	e.rec.add("serve.shed", float64(st.Shed+gs.Shed))
	e.rec.add("serve.completed", float64(st.Completed))
	e.rec.add("serve.cache_hits", float64(st.CacheHits))
	e.rec.add("serve.peer_hits", float64(st.PeerHits))
	e.rec.add("serve.estimated", float64(st.Estimated))
	e.rec.add("cluster.hedges", float64(gs.Hedges))
	e.rec.add("cluster.failovers", float64(gs.Failovers))
}

// stageTimes pulls every recorded span from the gateway's and the
// replicas' /debug/spans and reports each stage's self time: a span's
// duration minus its children's.
func (c *servingCluster) stageTimes() error {
	var spans []obs.Span
	for _, base := range append([]string{gatewayURL}, replicaURLs...) {
		resp, err := c.client.Get(base + "/debug/spans")
		if err != nil {
			return err
		}
		var got []obs.Span
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s/debug/spans: %w", base, err)
		}
		spans = append(spans, got...)
	}
	children := map[string]int64{}
	for _, s := range spans {
		children[s.Parent] += s.DurUS
		c.e.rec.span(s)
	}
	stages := map[string][]float64{}
	for _, s := range spans {
		name := s.Name
		if name == "serve.job" {
			// A journal hit has no timed child (serve.journal_hit is an
			// instant event), so its stage time is the job span's own.
			if s.Attrs["outcome"] != "cached" {
				continue // the other outcomes' time is in their child stages
			}
			name = "serve.job cached"
		}
		stages[name] = append(stages[name], float64(s.DurUS-children[s.ID]))
	}
	for _, m := range []struct {
		metric, span string
		perUS        float64
	}{
		{"serve.stage_admission_us", "serve.admission", 1},
		{"serve.stage_queue_wait_ms", "serve.queue_wait", 1000},
		{"serve.stage_run_ms", "serve.run", 1000},
		{"serve.stage_journal_hit_us", "serve.job cached", 1},
		{"serve.stage_peer_fetch_us", "serve.peer_fetch", 1},
		{"cluster.stage_route_us", "gateway.route", 1},
	} {
		xs := stages[m.span]
		if len(xs) == 0 {
			return errors.New("no " + m.span + " span was recorded")
		}
		c.e.rec.add(m.metric, mean(xs)/m.perUS)
	}
	return nil
}
