package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
)

// pipelineHarness is one real Server with its stage transitions observable:
// stageHook feeds entered, so a test waits for "that submission is now in
// run" instead of polling a counter that moves some time later.
type pipelineHarness struct {
	t       *testing.T
	s       *Server
	url     string
	entered chan string
	trace   obs.TraceContext // rides every observed submission
	// before is snapshotted as the first observed submission starts, so what
	// a row sets up first (a parked job, an adopted result) is not in its deltas.
	before *accounts
}

func newPipelineHarness(t *testing.T, cfg Config) *pipelineHarness {
	t.Helper()
	s, ts := newTestServer(t, cfg)
	h := &pipelineHarness{t: t, s: s, url: ts.URL, entered: make(chan string, 64),
		trace: obs.TraceContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}}
	s.stageHook = func(stage string) { h.entered <- stage }
	return h
}

// awaitStage blocks until some submission enters the named stage.
func (h *pipelineHarness) awaitStage(stage string) {
	h.t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case got := <-h.entered:
			if got == stage {
				return
			}
		case <-timeout:
			h.t.Fatalf("no submission entered stage %q", stage)
		}
	}
}

const endlessJob = `{"bench":"b+tree","cycles":1099511627776}`

// occupy parks a never-finishing job in run, holding one queue and one work
// slot until the server is aborted.
func (h *pipelineHarness) occupy() {
	h.t.Helper()
	go func() {
		if resp, err := http.Post(h.url+"/v1/jobs", "application/json", strings.NewReader(endlessJob)); err == nil {
			resp.Body.Close()
		}
	}()
	h.awaitStage("run")
}

// start submits body under the harness trace and returns a channel carrying
// the response (nil if the client gave up first).
func (h *pipelineHarness) start(ctx context.Context, body string) <-chan *http.Response {
	h.t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, h.trace.String())
	if h.before == nil {
		b := h.accounts()
		h.before = &b
	}
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resp = nil
		}
		done <- resp
	}()
	return done
}

func (h *pipelineHarness) post(body string) *http.Response {
	return <-h.start(context.Background(), body)
}

// accounts is everything Server.answer may move.
type accounts struct {
	stats   Stats
	metrics map[string]float64 // every /metrics sample
}

func (h *pipelineHarness) accounts() accounts {
	return accounts{stats: h.s.Stats(), metrics: scrapeMetrics(h.t, h.url)}
}

// scrapeMetrics reads GET /metrics into a map from each sample's name and
// labels, as written, to its value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// objectiveEvents counts a job-latency objective's events from /metrics
// alone, as DESIGN.md §15's query does: good are the 2xx answers within the
// threshold of ari_job_seconds' bucket le, bad the slower 2xx answers and
// every failure. A 400 is the client's fault and an abandoned submission
// has no client: neither is an event.
func objectiveEvents(m map[string]float64, le string) (good, bad float64) {
	var events float64
	for _, o := range []string{"cached", "estimated", "peer", "ok", "draining", "shed", "cancelled", "error"} {
		events += m[`ari_jobs_total{outcome="`+o+`"}`]
	}
	good = m[`ari_job_seconds_bucket{le="`+le+`"}`]
	return good, events - good
}

// movedSamples maps each sample of family whose value differs between the
// two scrapes to its change.
func movedSamples(family string, before, after map[string]float64) map[string]float64 {
	moved := map[string]float64{}
	for k, v := range after {
		if strings.HasPrefix(k, family+"{") && v != before[k] {
			moved[k] = v - before[k]
		}
	}
	return moved
}

// movedCounters names, by json tag, the int64 Stats fields that differ.
func movedCounters(before, after Stats) []string {
	var moved []string
	b, a := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < b.NumField(); i++ {
		if b.Field(i).Kind() == reflect.Int64 && b.Field(i).Int() != a.Field(i).Int() {
			tag, _, _ := strings.Cut(b.Type().Field(i).Tag.Get("json"), ",")
			moved = append(moved, tag)
		}
	}
	return moved
}

// TestStageBoundaries drives a real Server to every outcome of the pipeline
// and checks, per outcome, the whole row of the outcomes table at once:
// status, Retry-After, the one Stats counter that moved, the one
// ari_jobs_total sample that moved, the latency histogram, the serve.job
// span's outcome — and that queue slot, work slot and inflight are released
// afterwards.
func TestStageBoundaries(t *testing.T) {
	base := core.DefaultConfig()
	base.WarmupCycles = 200
	base.MeasureCycles = 600
	bfsKey := exp.JobKey(base, "bfs")
	bfsResult := core.Result{Benchmark: "bfs", Scheme: base.Scheme, IPC: 1.25}

	peerUp := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/results/"+bfsKey {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(JobResponse{Key: bfsKey, Cached: true, Result: bfsResult})
	}))
	defer peerUp.Close()
	peerDown := httptest.NewServer(http.NotFoundHandler())
	peerDown.Close() // connection refused from here on

	one := Config{MaxInFlight: 1, QueueDepth: -1} // one slot, no waiting room
	for _, tc := range []struct {
		name string
		cfg  Config
		// drive brings the server to the outcome and returns the observed
		// submission's response (nil when the client left before it).
		drive func(h *pipelineHarness) *http.Response

		status     int // 0: no response to look at
		retryAfter bool
		counter    string // json tag of the one Stats counter that moves ("" = none)
		// good/bad are the events a job-latency objective with a 30 s
		// threshold counts, read from /metrics (objectiveEvents).
		good, bad float64
		outcome   string // the serve.job span's outcome and ari_jobs_total label
	}{
		{name: "malformed body", drive: func(h *pipelineHarness) *http.Response { return h.post(`{"bench":`) },
			status: 400, outcome: "bad_request"},
		{name: "unknown benchmark", drive: func(h *pipelineHarness) *http.Response { return h.post(`{"bench":"nope"}`) },
			status: 400, outcome: "bad_request"},
		{name: "estimate the model rejects", drive: func(h *pipelineHarness) *http.Response {
			return h.post(`{"bench":"bfs","scheme":"DA2Mesh","estimate":true}`)
		}, status: 400, outcome: "bad_request"},
		{name: "estimate", drive: func(h *pipelineHarness) *http.Response { return h.post(`{"bench":"bfs","estimate":true}`) },
			status: 200, counter: "estimated", good: 1, outcome: "estimated"},
		{name: "cold run", drive: func(h *pipelineHarness) *http.Response { return h.post(`{"bench":"bfs"}`) },
			status: 200, counter: "completed", good: 1, outcome: "ok"},
		{name: "duplicate", drive: func(h *pipelineHarness) *http.Response {
			if err := h.s.cfg.Runner.AdoptKey(bfsKey, bfsResult); err != nil {
				h.t.Fatal(err)
			}
			return h.post(`{"bench":"bfs"}`)
		}, status: 200, counter: "cache_hits", good: 1, outcome: "cached"},
		{name: "peer hit", cfg: Config{Peers: []string{peerDown.URL, peerUp.URL}},
			drive:  func(h *pipelineHarness) *http.Response { return h.post(`{"bench":"bfs"}`) },
			status: 200, counter: "peer_hits", good: 1, outcome: "peer"},
		{name: "peer down", cfg: Config{Peers: []string{peerDown.URL}},
			drive:  func(h *pipelineHarness) *http.Response { return h.post(`{"bench":"bfs"}`) },
			status: 200, counter: "completed", good: 1, outcome: "ok"},
		{name: "draining", drive: func(h *pipelineHarness) *http.Response {
			h.s.BeginDrain()
			return h.post(`{"bench":"bfs"}`)
		}, status: 503, retryAfter: true, bad: 1, outcome: "draining"},
		{name: "full queue", cfg: one, drive: func(h *pipelineHarness) *http.Response {
			h.occupy()
			return h.post(`{"bench":"bfs"}`)
		}, status: 429, retryAfter: true, counter: "shed", bad: 1, outcome: "shed"},
		{name: "deadline expires in await_slot", cfg: Config{MaxInFlight: 1, QueueDepth: 1},
			drive: func(h *pipelineHarness) *http.Response {
				h.occupy()
				return h.post(`{"bench":"bfs","timeout_ms":30}`)
			}, status: 504, bad: 1, outcome: "cancelled"},
		{name: "deadline expires in run", drive: func(h *pipelineHarness) *http.Response {
			return h.post(`{"bench":"bfs","cycles":1099511627776,"timeout_ms":30}`)
		}, status: 504, bad: 1, outcome: "error"},
		{name: "abort during run", drive: func(h *pipelineHarness) *http.Response {
			done := h.start(context.Background(), `{"bench":"bfs","cycles":1099511627776}`)
			h.awaitStage("run")
			h.s.Abort()
			return <-done
		}, status: 503, retryAfter: true, bad: 1, outcome: "error"},
		{name: "client disconnects during run", drive: func(h *pipelineHarness) *http.Response {
			ctx, hangUp := context.WithCancel(context.Background())
			done := h.start(ctx, `{"bench":"bfs","cycles":1099511627776}`)
			h.awaitStage("run")
			hangUp()
			if resp := <-done; resp != nil {
				h.t.Errorf("a client that hung up got %v", resp.Status)
			}
			// Its run notices at the next watchdog poll; Wait returns once
			// the submission is accounted and released.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := h.s.Wait(ctx); err != nil {
				h.t.Fatal(err)
			}
			return nil
		}, bad: 1, outcome: "error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Runner = &exp.Runner{Base: base}
			cfg.PeerTimeout = 2 * time.Second
			h := newPipelineHarness(t, cfg)
			resp := tc.drive(h)
			before, after := *h.before, h.accounts()

			if resp != nil {
				defer resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Errorf("status = %d, want %d", resp.StatusCode, tc.status)
				}
				if got := resp.Header.Get("Retry-After") != ""; got != tc.retryAfter {
					t.Errorf("Retry-After present = %v, want %v", got, tc.retryAfter)
				}
			} else if tc.status != 0 {
				t.Fatalf("no response, want %d", tc.status)
			}
			var want []string
			if tc.counter != "" {
				want = []string{tc.counter}
			}
			if got := movedCounters(before.stats, after.stats); !reflect.DeepEqual(got, want) {
				t.Errorf("counters moved = %v, want %v", got, want)
			}
			wantSample := map[string]float64{`ari_jobs_total{outcome="` + tc.outcome + `"}`: 1}
			if got := movedSamples("ari_jobs_total", before.metrics, after.metrics); !reflect.DeepEqual(got, wantSample) {
				t.Errorf("ari_jobs_total moved %v, want %v", got, wantSample)
			}
			goodAfter, badAfter := objectiveEvents(after.metrics, "33.554431")
			goodBefore, badBefore := objectiveEvents(before.metrics, "33.554431")
			if g, b := goodAfter-goodBefore, badAfter-badBefore; g != tc.good || b != tc.bad {
				t.Errorf("objective good/bad delta = %v/%v, want %v/%v", g, b, tc.good, tc.bad)
			}
			if got := after.metrics["ari_job_seconds_count"] - before.metrics["ari_job_seconds_count"]; got != tc.good {
				t.Errorf("ari_job_seconds count delta = %v, want %v (2xx answers only)", got, tc.good)
			}
			var outcome string
			for _, sp := range h.s.spans.Spans(h.trace.Trace) {
				if sp.Name == "serve.job" {
					outcome += sp.Attrs["outcome"]
				}
			}
			if outcome != tc.outcome {
				t.Errorf("serve.job outcome = %q, want %q", outcome, tc.outcome)
			}

			// Nothing the pipeline acquired outlives the submissions.
			h.s.Abort()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := h.s.Wait(ctx); err != nil {
				t.Fatalf("inflight not released: %v", err)
			}
			if q, w := len(h.s.queue), len(h.s.work); q != 0 || w != 0 {
				t.Errorf("slots held after the last answer: queue %d, work %d", q, w)
			}
		})
	}
}
