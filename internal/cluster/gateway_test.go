package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
)

// fakeReplica is a scripted ariserve stand-in: /readyz always 200, /v1/jobs
// handled by jobs (counted).
type fakeReplica struct {
	ts   *httptest.Server
	hits atomic.Int32
}

func startFakeReplica(t *testing.T, jobs http.HandlerFunc) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		jobs(w, r)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func okJobs(key string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.JobResponse{Key: key, Cached: false})
	}
}

func gateFor(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.Base.MeshWidth == 0 {
		cfg.Base = core.DefaultConfig()
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func postJob(t *testing.T, g *Gateway, req serve.JobRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	w := httptest.NewRecorder()
	g.ServeHTTP(w, r)
	return w
}

// jobKeyFor computes the key the gateway will route req by.
func jobKeyFor(t *testing.T, base core.Config, req serve.JobRequest) string {
	t.Helper()
	job, err := serve.BuildJob(base, &req)
	if err != nil {
		t.Fatal(err)
	}
	return exp.JobKey(job.Cfg, job.Kernel.Name)
}

func TestGatewayRoutesToPrimaryOwner(t *testing.T) {
	reps := make([]*fakeReplica, 3)
	urls := make([]string, 3)
	for i := range reps {
		reps[i] = startFakeReplica(t, okJobs("k"))
		urls[i] = reps[i].ts.URL
	}
	base := core.DefaultConfig()
	g := gateFor(t, Config{Base: base, Replicas: urls, HedgeAfter: -1})

	req := serve.JobRequest{Bench: "bfs"}
	primary := g.Ring().Owners(jobKeyFor(t, base, req), 1)[0]

	for i := 0; i < 5; i++ {
		w := postJob(t, g, req)
		if w.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
	}
	for _, f := range reps {
		want := int32(0)
		if f.ts.URL == primary {
			want = 5
		}
		if got := f.hits.Load(); got != want {
			t.Fatalf("replica %s got %d hits, want %d (primary %s)", f.ts.URL, got, want, primary)
		}
	}
	st := g.Stats()
	if st.Requests != 5 || st.Failovers != 0 || st.Shed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGatewayFailsOverWhenPrimaryDies(t *testing.T) {
	reps := make([]*fakeReplica, 3)
	urls := make([]string, 3)
	for i := range reps {
		reps[i] = startFakeReplica(t, okJobs("k"))
		urls[i] = reps[i].ts.URL
	}
	base := core.DefaultConfig()
	g := gateFor(t, Config{Base: base, Replicas: urls, HedgeAfter: -1})

	req := serve.JobRequest{Bench: "bfs"}
	primary := g.Ring().Owners(jobKeyFor(t, base, req), 2)[0]
	for _, f := range reps {
		if f.ts.URL == primary {
			f.ts.Close() // connection refused: the crash signature
		}
	}

	w := postJob(t, g, req)
	if w.Code != http.StatusOK {
		t.Fatalf("failover submit: %d %s", w.Code, w.Body)
	}
	var resp serve.JobResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Key != "k" {
		t.Fatalf("failover body: %s (%v)", w.Body, err)
	}
	st := g.Stats()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	for _, row := range st.Replicas {
		if row.URL == primary && row.Failures == 0 {
			t.Fatalf("dead primary has no recorded failure: %+v", row)
		}
	}
}

func TestGatewayFailsOverOnShed(t *testing.T) {
	// The primary is alive but shedding 429: degrade sideways, not down.
	base := core.DefaultConfig()
	req := serve.JobRequest{Bench: "bfs"}

	shedding := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
	}
	a := startFakeReplica(t, shedding)
	b := startFakeReplica(t, shedding)
	urls := []string{a.ts.URL, b.ts.URL}
	g := gateFor(t, Config{Base: base, Replicas: urls, HedgeAfter: -1})

	// Both owners shed: the gateway sheds too, relaying the worst Retry-After.
	w := postJob(t, g, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("all-shedding cluster: %d %s", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the owners' hint 7", ra)
	}
	if st := g.Stats(); st.Shed != 1 || st.Failovers != 1 {
		t.Fatalf("stats = %+v, want shed=1 failovers=1", st)
	}
	if a.hits.Load()+b.hits.Load() != 2 {
		t.Fatalf("both owners should have been tried: %d + %d hits", a.hits.Load(), b.hits.Load())
	}
}

func TestGatewayShedsWhenAllOwnersDown(t *testing.T) {
	a := startFakeReplica(t, okJobs("k"))
	b := startFakeReplica(t, okJobs("k"))
	urls := []string{a.ts.URL, b.ts.URL}
	a.ts.Close()
	b.ts.Close()

	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: urls, HedgeAfter: -1})
	w := postJob(t, g, serve.JobRequest{Bench: "bfs"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("dead cluster: %d %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}
	if st := g.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
}

func TestGatewayRelaysTerminalRejection(t *testing.T) {
	// A deterministic 4xx/5xx is identical on every replica: relay verbatim,
	// never fail over.
	rejecting := func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "simulation diverged"})
	}
	a := startFakeReplica(t, rejecting)
	b := startFakeReplica(t, rejecting)
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL, b.ts.URL}, HedgeAfter: -1})

	w := postJob(t, g, serve.JobRequest{Bench: "bfs"})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("terminal relay: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "simulation diverged") {
		t.Fatalf("terminal body not relayed: %s", w.Body)
	}
	if a.hits.Load()+b.hits.Load() != 1 {
		t.Fatalf("terminal rejection failed over: %d + %d hits", a.hits.Load(), b.hits.Load())
	}
	if st := g.Stats(); st.Failovers != 0 {
		t.Fatalf("failovers = %d on a terminal rejection", st.Failovers)
	}
}

func TestGatewayRejectsBadRequestsItself(t *testing.T) {
	a := startFakeReplica(t, okJobs("k"))
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL}})

	w := postJob(t, g, serve.JobRequest{Bench: "no-such-kernel"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown bench: %d %s", w.Code, w.Body)
	}
	// Configs past a network limit, which the replica could not run.
	vcs, niq, mesh, lines := core.DefaultConfig(), core.DefaultConfig(), core.DefaultConfig(), core.DefaultConfig()
	vcs.VCs = 40
	niq.NIQueueFlits = -5
	mesh.MeshWidth, mesh.MeshHeight = 4096, 4096 // flit buffers past int32 offsets
	lines.MC.L2.LineBytes = 64                   // half the line a packet carries
	for _, cfg := range []core.Config{vcs, niq, mesh, lines} {
		for _, estimate := range []bool{false, true} {
			w := postJob(t, g, serve.JobRequest{Bench: "bfs", Config: &cfg, Estimate: estimate})
			if w.Code != http.StatusBadRequest {
				t.Errorf("invalid config, estimate %v: %d %s", estimate, w.Code, w.Body)
			}
		}
	}
	// A field core.Config does not have — one it never had and the seven it
	// dropped, each in the object it lived in — inside a valid config in
	// run and estimate mode.
	for _, f := range []struct{ in, field string }{
		{`"config":{`, `"EdgeMCPlacement":true,`},
		{`"config":{`, `"DataBytes":128,`},
		{`"config":{`, `"MultiPortPorts":2,`},
		{`"config":{`, `"EjectRate":1,`},
		{`"Core":{`, `"WarpsPerCore":48,`},
		{`"config":{`, `"Fault":{"CorruptProb":0.05},`},
		{`"config":{`, `"RetransBufPkts":8,`},
	} {
		for _, estimate := range []bool{false, true} {
			def := core.DefaultConfig()
			body, _ := json.Marshal(serve.JobRequest{Bench: "bfs", Config: &def, Estimate: estimate})
			body = bytes.Replace(body, []byte(f.in), []byte(f.in+f.field), 1)
			w := httptest.NewRecorder()
			g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			if w.Code != http.StatusBadRequest {
				t.Errorf("config field %s, estimate %v: %d %s", f.field, estimate, w.Code, w.Body)
			}
		}
	}
	if a.hits.Load() != 0 {
		t.Fatal("unroutable request reached a replica")
	}

	// The route-latency objective is a query over /metrics (DESIGN.md §15).
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slo", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /debug/slo: %d, want 404", rec.Code)
	}

	r := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, r)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d", rec.Code)
	}
}

func TestGatewayHedgesSlowPrimary(t *testing.T) {
	base := core.DefaultConfig()
	req := serve.JobRequest{Bench: "bfs"}

	// The first attempt (the primary) blocks until the request is cancelled;
	// any later attempt (the hedge) answers immediately. The hedge must win.
	release := make(chan struct{})
	defer close(release)
	var first atomic.Bool
	hedgeAware := func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		okJobs("k")(w, r)
	}
	a := startFakeReplica(t, hedgeAware)
	b := startFakeReplica(t, hedgeAware)
	g := gateFor(t, Config{Base: base, Replicas: []string{a.ts.URL, b.ts.URL}, HedgeAfter: 20 * time.Millisecond})

	start := time.Now()
	w := postJob(t, g, req)
	if w.Code != http.StatusOK {
		t.Fatalf("hedged submit: %d %s", w.Code, w.Body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("hedge did not rescue a stuck primary: %s", took)
	}
	st := g.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges=%d hedgeWins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
	if a.hits.Load()+b.hits.Load() != 2 {
		t.Fatalf("hits = %d + %d, want one primary + one hedge", a.hits.Load(), b.hits.Load())
	}
}

func TestGatewayEndpoints(t *testing.T) {
	a := startFakeReplica(t, okJobs("k"))
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL}, ProbeInterval: 10 * time.Millisecond})
	g.Start()

	ts := httptest.NewServer(g)
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/v1/stats", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, resp.StatusCode, body)
		}
		if path == "/metrics" && !strings.Contains(string(body), "arigate_requests_total") {
			t.Fatalf("metrics missing arigate_requests_total:\n%s", body)
		}
		if path == "/v1/stats" {
			var st Stats
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("stats body: %v", err)
			}
		}
	}
}

// TestGatewayReusesReplicaConnections: the gateway as shipped (no HTTPClient
// given) keeps a connection per submission it has in flight to a replica, so
// waves of 16 concurrent submissions open 16 connections, not 14 more each
// wave (http.DefaultClient keeps two idle per host).
func TestGatewayReusesReplicaConnections(t *testing.T) {
	const clients, waves = 16, 4
	var opened, arrived atomic.Int32
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// Answer only once the whole wave is in flight.
		if arrived.Add(1)%clients == 0 {
			close(release)
		}
		<-release
		okJobs("k")(w, r)
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	g := gateFor(t, Config{Replicas: []string{ts.URL}})
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				if w := postJob(t, g, serve.JobRequest{Bench: "bfs", Seed: seed}); w.Code != http.StatusOK {
					t.Errorf("submission answered %d: %s", w.Code, w.Body)
				}
			}(uint64(1 + wave*clients + c))
		}
		wg.Wait()
		release = make(chan struct{})
	}
	if n := opened.Load(); n > clients {
		t.Fatalf("%d waves of %d concurrent submissions opened %d connections to the replica, want at most %d",
			waves, clients, n, clients)
	}
}
