package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/trace"
)

// tinyRunner mirrors the exp package's test helper: short horizons, small
// suite, fast enough for unit tests.
func tinyRunner(t *testing.T) *exp.Runner {
	t.Helper()
	r := exp.NewRunner()
	r.Base.WarmupCycles = 200
	r.Base.MeasureCycles = 600
	var subset []trace.Kernel
	for _, name := range []string{"bfs", "b+tree", "lavaMD"} {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, k)
	}
	r.Benchmarks = subset
	return r
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = tinyRunner(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post submits raw JSON and returns the response.
func post(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) JobResponse {
	t.Helper()
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSubmitRunsAndDedupes(t *testing.T) {
	r := tinyRunner(t)
	s, ts := newTestServer(t, Config{Runner: r})

	resp := post(t, ts.URL, `{"bench":"bfs","scheme":"Ada-ARI"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	first := decodeJob(t, resp)
	if first.Cached {
		t.Fatal("fresh job reported cached")
	}
	if first.Result.Benchmark != "bfs" || first.Result.Scheme != core.AdaARI {
		t.Fatalf("wrong result identity: %+v", first.Result)
	}
	wantCfg := r.Base
	wantCfg.Scheme = core.AdaARI
	if first.Key != exp.JobKey(wantCfg, "bfs") {
		t.Fatalf("key = %q, want JobKey of the resolved config", first.Key)
	}

	// Identical resubmission: idempotent, answered from the store.
	second := decodeJob(t, post(t, ts.URL, `{"bench":"bfs","scheme":"Ada-ARI"}`))
	if !second.Cached {
		t.Fatal("duplicate job not served from cache")
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatal("cached result differs from the original")
	}
	if r.Runs() != 1 {
		t.Fatalf("runs = %d, want 1", r.Runs())
	}
	st := s.Stats()
	if st.Completed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 completed / 1 cache hit", st)
	}
}

func TestSubmitFullConfigOverride(t *testing.T) {
	r := tinyRunner(t)
	_, ts := newTestServer(t, Config{Runner: r})
	cfg := r.Base
	cfg.Scheme = core.XYARI
	cfg.Seed = 7
	body, err := json.Marshal(JobRequest{Bench: "lavaMD", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %v", resp.Status)
	}
	out := decodeJob(t, resp)
	if out.Key != exp.JobKey(cfg, "lavaMD") {
		t.Fatal("full-config job keyed differently from its config")
	}
	// The server must have simulated exactly this config.
	if res, ok := r.Lookup(cfg, "lavaMD"); !ok || !reflect.DeepEqual(res, out.Result) {
		t.Fatal("result not stored under the submitted config")
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{`,                       // malformed JSON
		`{"bench":"nosuchbench"}`, // unknown benchmark
		`{"bench":"bfs","scheme":"nosuchscheme"}`,  // unknown scheme
		`{"bench":"bfs","config":{"MeshWidth":0}}`, // invalid config
	} {
		resp := post(t, ts.URL, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %v, want 400", body, resp.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs: status = %v, want 405", resp.Status)
	}
}

// TestSchemeNamesIgnoreCase: a scheme label resolves without regard to case,
// and the server's request resolution uses the one parser.
func TestSchemeNamesIgnoreCase(t *testing.T) {
	base := core.DefaultConfig()
	for _, tc := range []struct {
		name string
		want core.Scheme
		ok   bool
	}{
		{"Ada-ARI", core.AdaARI, true},
		{"ada-ari", core.AdaARI, true},
		{"ADA-ARI", core.AdaARI, true},
		{"Ada-ARI-2", 0, false},
	} {
		sch, err := core.ParseScheme(tc.name)
		if (err == nil) != tc.ok || (tc.ok && sch != tc.want) {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v, ok %v", tc.name, sch, err, tc.want, tc.ok)
		}
		job, err := BuildJob(base, &JobRequest{Bench: "bfs", Scheme: tc.name})
		if (err == nil) != tc.ok || (tc.ok && job.Cfg.Scheme != tc.want) {
			t.Errorf("BuildJob(scheme %q) = %v, %v; want %v, ok %v", tc.name, job.Cfg.Scheme, err, tc.want, tc.ok)
		}
	}
}

func TestJobDeadlinePropagatesAndCancels(t *testing.T) {
	r := tinyRunner(t)
	r.Base.MeasureCycles = 1 << 40 // would run for hours
	s, ts := newTestServer(t, Config{Runner: r})

	start := time.Now()
	resp := post(t, ts.URL, `{"bench":"bfs","timeout_ms":50}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %v, want 504", resp.Status)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("deadline enforced only after %s", took)
	}
	// The expired job must be cancelled, not orphaned: its slots free up.
	waitFor(t, time.Second, func() bool { return s.Stats().Admitted == 0 })
}

func TestHealthAndReadinessFlipOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if get("/healthz").StatusCode != http.StatusOK {
		t.Fatal("healthz not ok")
	}
	if get("/readyz").StatusCode != http.StatusOK {
		t.Fatal("readyz not ok before drain")
	}

	s.BeginDrain()
	if get("/healthz").StatusCode != http.StatusOK {
		t.Fatal("healthz must stay ok while draining (process is alive)")
	}
	rz := get("/readyz")
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %v after drain, want 503", rz.Status)
	}
	// Admission is closed: new submissions are rejected retryably.
	resp := post(t, ts.URL, `{"bench":"bfs"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %v, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain rejection missing Retry-After")
	}
}

func TestCachedResultsServedWhileDraining(t *testing.T) {
	r := tinyRunner(t)
	s, ts := newTestServer(t, Config{Runner: r})
	want := decodeJob(t, post(t, ts.URL, `{"bench":"lavaMD"}`))
	s.BeginDrain()
	resp := post(t, ts.URL, `{"bench":"lavaMD"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached job while draining = %v, want 200", resp.Status)
	}
	got := decodeJob(t, resp)
	if !got.Cached || !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatal("cached result unavailable or wrong while draining")
	}
}

func TestNewRequiresRunner(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without Runner succeeded")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
