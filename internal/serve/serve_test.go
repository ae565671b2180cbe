package serve

import (
	"encoding/json"
	"io"
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
	if res, ok := r.LookupKey(exp.JobKey(cfg, "lavaMD")); !ok || !reflect.DeepEqual(res, out.Result) {
		t.Fatal("result not stored under the submitted config")
	}
}

// goneConfigFields are fields core.Config does not have, each with the
// object it would sit in: one it never had, then the seven it dropped.
var goneConfigFields = []struct{ in, field string }{
	{`"config":{`, `"EdgeMCPlacement":true,`},
	{`"config":{`, `"DataBytes":128,`},
	{`"config":{`, `"MultiPortPorts":2,`},
	{`"config":{`, `"EjectRate":1,`},
	{`"Core":{`, `"WarpsPerCore":48,`},
	{`"config":{`, `"Fault":{"CorruptProb":0.05},`},
	{`"config":{`, `"RetransBufPkts":8,`},
}

// fieldName is the JSON key a goneConfigFields field sets.
func fieldName(field string) string { return strings.Split(field, `"`)[1] }

func TestSubmitRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bodies := []string{
		`{`,                       // malformed JSON
		`{"bench":"nosuchbench"}`, // unknown benchmark
		`{"bench":"bfs","scheme":"nosuchscheme"}`,  // unknown scheme
		`{"bench":"bfs","config":{"MeshWidth":0}}`, // invalid config
	}
	// Configs past a network limit, in run and estimate mode: Validate
	// refuses what NewSimulator would, so they never reach admission.
	vcs, niq, mesh, lines := core.DefaultConfig(), core.DefaultConfig(), core.DefaultConfig(), core.DefaultConfig()
	vcs.VCs = 40
	niq.NIQueueFlits = -5
	mesh.MeshWidth, mesh.MeshHeight = 4096, 4096 // flit buffers past int32 offsets
	lines.MC.L2.LineBytes = 64                   // half the line a packet carries
	for _, cfg := range []core.Config{vcs, niq, mesh, lines} {
		for _, estimate := range []bool{false, true} {
			b, err := json.Marshal(JobRequest{Bench: "bfs", Config: &cfg, Estimate: estimate})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, string(b))
		}
	}
	// A field neither JobRequest nor core.Config has, at the top level and
	// inside a valid config in run and estimate mode: refused, not dropped.
	// The config fields are one it never had and the ones it dropped, each
	// where it lived and with the value it took.
	// Each of those is refused by name.
	bodies = append(bodies, `{"bench":"bfs","cycels":100}`)
	named := map[string]string{}
	for _, estimate := range []bool{false, true} {
		def := core.DefaultConfig()
		b, err := json.Marshal(JobRequest{Bench: "bfs", Config: &def, Estimate: estimate})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range goneConfigFields {
			body := strings.Replace(string(b), f.in, f.in+f.field, 1)
			bodies = append(bodies, body)
			named[body] = fieldName(f.field)
		}
	}
	for _, body := range bodies {
		resp := post(t, ts.URL, body)
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %v, want 400", body, resp.Status)
		} else if !strings.Contains(string(msg), named[body]) {
			t.Errorf("body %s: answer %q does not name %s", body, msg, named[body])
		}
	}
	// Every one ended at decode: no queue slot, run, estimate or timed answer.
	s.mu.Lock()
	counts := s.counts
	s.mu.Unlock()
	if counts[outBadRequest] != int64(len(bodies)) || counts[outError] != 0 {
		t.Errorf("outcomes %v: want %d bad requests and nothing else", counts, len(bodies))
	}
	if runs, timed := s.cfg.Runner.Runs(), s.jobHist.Count(); runs != 0 || timed != 0 {
		t.Errorf("%d runs, %d answers timed in ari_job_seconds", runs, timed)
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
