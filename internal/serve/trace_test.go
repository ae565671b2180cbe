package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// postTraced submits a job with an X-Ari-Trace header.
func postTraced(t *testing.T, url, body, traceHeader string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceHeader != "" {
		req.Header.Set(obs.TraceHeader, traceHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeContinuesTrace pins the replica's half of the trace contract: an
// incoming context is continued (serve.job parents under the caller's span),
// the response echoes the serve.job context, child spans cover admission /
// queue wait / run, and the run's sampled NoC packets land in the trace
// anchored at the run span's start.
func TestServeContinuesTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{PacketSample: 1})

	parent := obs.TraceContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	resp := postTraced(t, ts.URL, `{"bench":"bfs"}`, parent.String())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	echo, ok := obs.ParseTraceContext(resp.Header.Get(obs.TraceHeader))
	if !ok || echo.Trace != parent.Trace {
		t.Fatalf("echoed context = %q, want trace %s", resp.Header.Get(obs.TraceHeader), parent.Trace)
	}

	spans := s.spans.Spans(parent.Trace)
	byName := map[string][]obs.Span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	job := byName["serve.job"]
	if len(job) != 1 || job[0].Parent != parent.Span {
		t.Fatalf("serve.job spans = %+v, want one parented under %s", job, parent.Span)
	}
	if job[0].ID != echo.Span {
		t.Fatalf("echoed span %s != serve.job ID %s", echo.Span, job[0].ID)
	}
	if job[0].Attrs["outcome"] != "ok" || job[0].Attrs["bench"] != "bfs" {
		t.Fatalf("serve.job attrs = %v", job[0].Attrs)
	}
	for _, name := range []string{"serve.admission", "serve.queue_wait", "serve.run"} {
		sp := byName[name]
		if len(sp) != 1 || sp[0].Parent != job[0].ID {
			t.Fatalf("%s spans = %+v, want one under serve.job", name, sp)
		}
	}
	run := byName["serve.run"][0]
	var pkts int
	for name, group := range byName {
		if !strings.HasPrefix(name, "pkt ") {
			continue
		}
		for _, sp := range group {
			pkts++
			if sp.Parent != run.ID {
				t.Fatalf("packet span %+v not under serve.run", sp)
			}
			if sp.StartUS < run.StartUS {
				t.Fatalf("packet span starts before its run: %d < %d", sp.StartUS, run.StartUS)
			}
		}
	}
	if pkts == 0 {
		t.Fatalf("no packet spans linked; recorded spans: %v", names(spans))
	}

	// A duplicate submission under a fresh trace is a journal hit and says so.
	parent2 := obs.TraceContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	resp2 := postTraced(t, ts.URL, `{"bench":"bfs"}`, parent2.String())
	resp2.Body.Close()
	spans2 := s.spans.Spans(parent2.Trace)
	var hit bool
	for _, sp := range spans2 {
		if sp.Name == "serve.journal_hit" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("duplicate's trace missing serve.journal_hit: %v", names(spans2))
	}
}

func names(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestServeUntracedByDefault: no incoming context, no sampling -> no spans,
// no header, no recorder growth.
func TestServeUntracedByDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postTraced(t, ts.URL, `{"bench":"bfs"}`, "")
	resp.Body.Close()
	if h := resp.Header.Get(obs.TraceHeader); h != "" {
		t.Fatalf("untraced response carries %s: %q", obs.TraceHeader, h)
	}
	if n := s.spans.Len(); n != 0 {
		t.Fatalf("recorder holds %d spans without tracing", n)
	}
}

// TestTracedRunByteIdentical locks the tentpole invariant: attaching the
// whole tracing stack to a run must not change its Result by a single byte
// relative to a plain run of the same job.
func TestTracedRunByteIdentical(t *testing.T) {
	plainS, plainTS := newTestServer(t, Config{})
	_ = plainS
	tracedS, tracedTS := newTestServer(t, Config{PacketSample: 1, TraceSample: 1})
	_ = tracedS

	body := `{"bench":"b+tree"}`
	plain := decodeJob(t, post(t, plainTS.URL, body))
	traced := decodeJob(t, post(t, tracedTS.URL, body))
	if plain.Key != traced.Key {
		t.Fatalf("keys diverge: %s vs %s", plain.Key, traced.Key)
	}
	pj, _ := json.Marshal(plain.Result)
	tj, _ := json.Marshal(traced.Result)
	if !bytes.Equal(pj, tj) {
		t.Fatalf("traced result differs from plain:\nplain:  %s\ntraced: %s", pj, tj)
	}
	if !reflect.DeepEqual(plain.Result, traced.Result) {
		t.Fatal("traced result differs structurally from plain")
	}
}

// TestServeDebugEndpoints covers /debug/trace, and that /debug/slo is gone:
// the job-latency objective is a query over /metrics.
func TestServeDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 1, PacketSample: 1})

	// /debug/trace before any trace: 404.
	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty /debug/trace = %d, want 404", resp.StatusCode)
	}

	post(t, ts.URL, `{"bench":"bfs"}`).Body.Close()

	resp, err = http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/slo = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace = %d %s", resp.StatusCode, raw)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/debug/trace not a trace document: %v", err)
	}
	var sawRun bool
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "serve.run" {
			sawRun = true
		}
	}
	if !sawRun {
		t.Fatalf("/debug/trace missing serve.run event:\n%s", raw)
	}
}

// TestServeMetricsHistogramsAndSLO: /metrics alone answers the job-latency
// objective. A mixed run — a bad request, two fast 2xx answers, a slow run,
// a failed run and a submission refused while draining — must read back as
// the 2 good and 3 bad events a latency tracker with a 524 ms threshold
// (the le="0.524287" bucket) would have counted, with the bad request
// counted as neither.
func TestServeMetricsHistogramsAndSLO(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.stageHook = func(stage string) {
		if stage == "run" {
			time.Sleep(600 * time.Millisecond) // past the 0.524287 s bucket
		}
	}
	for _, sub := range []struct {
		body   string
		status int
	}{
		{`{"bench":`, 400},
		{`{"bench":"bfs","estimate":true}`, 200},
		{`{"bench":"bfs"}`, 200}, // slow: run
		{`{"bench":"bfs"}`, 200}, // fast: cached
		{`{"bench":"kmeans","cycles":1099511627776,"timeout_ms":30}`, 504},
	} {
		resp := post(t, ts.URL, sub.body)
		resp.Body.Close()
		if resp.StatusCode != sub.status {
			t.Fatalf("%s: status %d, want %d", sub.body, resp.StatusCode, sub.status)
		}
	}
	s.BeginDrain()
	post(t, ts.URL, `{"bench":"nn"}`).Body.Close()

	m := scrapeMetrics(t, ts.URL)
	if good, bad := objectiveEvents(m, "0.524287"); good != 2 || bad != 3 || m[`ari_jobs_total{outcome="bad_request"}`] != 1 {
		t.Errorf("good %v, bad %v, bad requests %v; want 2, 3, 1", good, bad, m[`ari_jobs_total{outcome="bad_request"}`])
	}
	var served float64
	for _, o := range []string{"cached", "estimated", "peer", "ok"} {
		served += m[`ari_jobs_total{outcome="`+o+`"}`]
	}
	if m["ari_job_seconds_count"] != served {
		t.Errorf("ari_job_seconds_count %v, want the %v 2xx answers", m["ari_job_seconds_count"], served)
	}
	for _, family := range []string{"ari_job_seconds", "ari_run_seconds", "ari_queue_wait_seconds"} {
		if _, ok := m[family+`_bucket{le="33.554431"}`]; !ok {
			t.Errorf("/metrics has no %s bucket at the 30 s objective", family)
		}
	}
}
