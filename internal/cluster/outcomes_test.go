package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestGatewayOutcomes drives the gateway to every row of its outcomes table
// against two scripted owners and checks the whole row at once: status,
// Retry-After, the shed counter, the one arigate_routes_total sample that
// moved, the route-latency objective's good/bad events read from /metrics
// alone, the route histogram and the gateway.route span's outcome.
func TestGatewayOutcomes(t *testing.T) {
	const date = "Wed, 21 Oct 2026 07:28:00 GMT"
	answer := func(status int, retryAfter string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			w.Write([]byte(`{"error":"scripted"}`))
		}
	}
	reached := make(chan struct{}, 2)
	hang := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // the server notices a closed connection only past the body
		reached <- struct{}{}       // the transition the abandoned row waits on
		<-r.Context().Done()
	}

	for _, tc := range []struct {
		name       string
		a, b       http.HandlerFunc // the two owners' scripts
		hangUp     bool             // the client leaves once an owner is reached
		status     int              // 0: nothing may be written
		retryAfter string
		shed       int64
		good, bad  float64
		sample     string // the arigate_routes_total outcome label
		outcome    string
	}{
		{name: "ok", a: okJobs("k"), b: okJobs("k"), status: 200, good: 1, sample: "ok", outcome: "ok"},
		{name: "rejected 400", a: answer(400, ""), b: answer(400, ""), status: 400, sample: "rejected", outcome: "rejected 400"},
		{name: "rejected 500", a: answer(500, ""), b: answer(500, ""), status: 500, bad: 1, sample: "error", outcome: "error 500"},
		{name: "shed, max parsed hint", a: answer(429, "3"), b: answer(503, "7"),
			status: 429, retryAfter: "7", shed: 1, bad: 1, sample: "shed", outcome: "shed"},
		{name: "shed, parsed beats raw", a: answer(429, date), b: answer(429, "9"),
			status: 429, retryAfter: "9", shed: 1, bad: 1, sample: "shed", outcome: "shed"},
		{name: "shed, raw HTTP-date hint", a: answer(503, date), b: answer(503, date),
			status: 429, retryAfter: date, shed: 1, bad: 1, sample: "shed", outcome: "shed"},
		{name: "shed, no hint", a: answer(504, ""), b: answer(502, ""),
			status: 429, retryAfter: "1", shed: 1, bad: 1, sample: "shed", outcome: "shed"},
		{name: "abandoned", a: hang, b: hang, hangUp: true, sample: "abandoned", outcome: "abandoned"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := startFakeReplica(t, tc.a), startFakeReplica(t, tc.b)
			g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL, b.ts.URL}, HedgeAfter: -1})

			trace := obs.TraceContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
			ctx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte(`{"bench":"bfs"}`))).WithContext(ctx)
			req.Header.Set(obs.TraceHeader, trace.String())
			w := httptest.NewRecorder()
			if tc.hangUp {
				go func() {
					<-reached
					hangUp()
				}()
			}
			g.ServeHTTP(w, req)

			if tc.status == 0 {
				if w.Body.Len() != 0 || w.Header().Get("Retry-After") != "" {
					t.Errorf("wrote %q to a client that left", w.Body)
				}
			} else if w.Code != tc.status {
				t.Errorf("status = %d, want %d", w.Code, tc.status)
			}
			if got := w.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After = %q, want %q", got, tc.retryAfter)
			}
			if got := g.Stats().Shed; got != tc.shed {
				t.Errorf("shed = %d, want %d", got, tc.shed)
			}
			m := gatewayMetrics(t, g)
			for o := range outcomes {
				name, want := outcomes[o].name, 0.0
				if name == tc.sample {
					want = 1
				}
				if got := m[`arigate_routes_total{outcome="`+name+`"}`]; got != want {
					t.Errorf("arigate_routes_total{outcome=%q} = %v, want %v", name, got, want)
				}
			}
			// The route-latency objective at a 2 s threshold: good are the
			// ok answers within the le="2.097151" bucket, bad the slower ok
			// answers, relayed 5xx and sheds. A relayed 4xx is the client's.
			events := m[`arigate_routes_total{outcome="ok"}`] + m[`arigate_routes_total{outcome="error"}`] +
				m[`arigate_routes_total{outcome="shed"}`]
			good := m[`arigate_route_seconds_bucket{le="2.097151"}`]
			if bad := events - good; good != tc.good || bad != tc.bad {
				t.Errorf("objective good/bad = %v/%v, want %v/%v", good, bad, tc.good, tc.bad)
			}
			if got := m["arigate_route_seconds_count"]; got != tc.good {
				t.Errorf("arigate_route_seconds count = %v, want %v (ok answers only)", got, tc.good)
			}
			var outcome string
			for _, sp := range g.spans.Spans(trace.Trace) {
				if sp.Name == "gateway.route" {
					outcome += sp.Attrs["outcome"]
				}
			}
			if outcome != tc.outcome {
				t.Errorf("gateway.route outcome = %q, want %q", outcome, tc.outcome)
			}
		})
	}
}

// TestGatewayCountsBadRequests: a submission the gateway refuses itself
// reaches no replica, counts as arigate_routes_total{outcome="bad_request"}
// and stays out of arigate_requests_total, which counts routed submissions.
func TestGatewayCountsBadRequests(t *testing.T) {
	a := startFakeReplica(t, okJobs("k"))
	g := gateFor(t, Config{Base: core.DefaultConfig(), Replicas: []string{a.ts.URL}})
	if w := postJob(t, g, serve.JobRequest{Bench: "no-such-kernel"}); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown bench: %d %s", w.Code, w.Body)
	}
	m := gatewayMetrics(t, g)
	if got := m[`arigate_routes_total{outcome="bad_request"}`]; got != 1 {
		t.Errorf(`arigate_routes_total{outcome="bad_request"} = %v, want 1`, got)
	}
	if got := m["arigate_requests_total"]; got != 0 {
		t.Errorf("arigate_requests_total = %v, want 0", got)
	}
	w := httptest.NewRecorder()
	g.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("GET /v1/jobs: %d, Allow %q", w.Code, w.Header().Get("Allow"))
	}
	if got := gatewayMetrics(t, g)[`arigate_routes_total{outcome="bad_request"}`]; got != 2 {
		t.Errorf(`after a GET, arigate_routes_total{outcome="bad_request"} = %v, want 2`, got)
	}
	if a.hits.Load() != 0 {
		t.Fatal("a refused request reached a replica")
	}
}

// gatewayMetrics reads the gateway's /metrics into a map from each sample's
// name and labels, as written, to its value.
func gatewayMetrics(t *testing.T, g *Gateway) map[string]float64 {
	t.Helper()
	w := httptest.NewRecorder()
	g.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples := make(map[string]float64)
	for _, line := range strings.Split(w.Body.String(), "\n") {
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
