package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestGatewayOutcomes drives the gateway to every row of its outcomes table
// against two scripted owners and checks the whole row at once: status,
// Retry-After, the shed counter, the SLO class, the route histogram and the
// gateway.route span's outcome.
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
		good, bad  uint64
		outcome    string
	}{
		{name: "ok", a: okJobs("k"), b: okJobs("k"), status: 200, good: 1, outcome: "ok"},
		{name: "rejected 400", a: answer(400, ""), b: answer(400, ""), status: 400, outcome: "rejected 400"},
		{name: "rejected 500", a: answer(500, ""), b: answer(500, ""), status: 500, bad: 1, outcome: "rejected 500"},
		{name: "shed, max parsed hint", a: answer(429, "3"), b: answer(503, "7"),
			status: 429, retryAfter: "7", shed: 1, bad: 1, outcome: "shed"},
		{name: "shed, parsed beats raw", a: answer(429, date), b: answer(429, "9"),
			status: 429, retryAfter: "9", shed: 1, bad: 1, outcome: "shed"},
		{name: "shed, raw HTTP-date hint", a: answer(503, date), b: answer(503, date),
			status: 429, retryAfter: date, shed: 1, bad: 1, outcome: "shed"},
		{name: "shed, no hint", a: answer(504, ""), b: answer(502, ""),
			status: 429, retryAfter: "1", shed: 1, bad: 1, outcome: "shed"},
		{name: "abandoned", a: hang, b: hang, hangUp: true, outcome: "abandoned"},
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
			o := g.slo.Report().Objectives[0]
			if good, bad := o.Good, o.Total-o.Good; good != tc.good || bad != tc.bad {
				t.Errorf("SLO good/bad = %d/%d, want %d/%d", good, bad, tc.good, tc.bad)
			}
			if got := g.routeHist.Count(); got != tc.good {
				t.Errorf("arigate_route_seconds count = %d, want %d (ok answers only)", got, tc.good)
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
