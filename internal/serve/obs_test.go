// Observability-endpoint suite: /metrics exposes server and per-job
// progress in Prometheus text format, /debug/nocstate snapshots in-flight
// simulations, /debug/pprof is reachable, and none of it leaks goroutines
// across a drain.
package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// getBody fetches url and returns status and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// metricValue extracts the value of the first sample line starting with
// prefix (name or name{labels}), or -1 when absent.
func metricValue(body, prefix string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			f, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err == nil {
				return f
			}
		}
	}
	return -1
}

func TestMetricsEndpointIdleServer(t *testing.T) {
	_, ts := startServer(t, serve.Config{Runner: testRunner(t)})
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"ari_jobs_admitted 0",
		"ari_jobs_completed_total 0",
		"ari_jobs_running 0",
		"ari_draining 0",
		"# TYPE ari_jobs_completed_total counter",
		"go_goroutines ",
		"go_heap_alloc_bytes ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// blockedJob submits a never-finishing job and waits until its run is
// registered with the monitor: that, not admission (which happens earlier),
// is what /metrics progress and /debug/nocstate observe.
func blockedJob(t *testing.T, mon *obs.RunMonitor, ts string) {
	t.Helper()
	go func() {
		resp, err := http.Post(ts+"/v1/jobs", "application/json",
			strings.NewReader(`{"bench":"bfs"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	pollUntil(t, 5*time.Second, "the job's run to start", func() bool {
		return len(mon.Active()) == 1
	})
}

// TestMetricsExposesRunningJobProgress is the acceptance check: while a job
// executes, /metrics carries its per-job progress gauges with the job label,
// and the reported cycle advances between scrapes.
func TestMetricsExposesRunningJobProgress(t *testing.T) {
	r := testRunner(t)
	r.Base.MeasureCycles = 1 << 40 // runs until aborted
	s, ts := startServer(t, serve.Config{Runner: r, MaxInFlight: 1})
	t.Cleanup(func() { abortAndWait(t, s) })
	blockedJob(t, r.Monitor, ts.URL)

	const label = `{job="bfs/XY-Baseline"}`
	var body string
	pollUntil(t, 5*time.Second, "per-job progress to appear in /metrics", func() bool {
		var code int
		code, body = getBody(t, ts.URL+"/metrics")
		return code == http.StatusOK &&
			metricValue(body, "ari_job_progress_cycles"+label) > 0 &&
			strings.Contains(body, "ari_jobs_running 1")
	})
	for _, want := range []string{
		"ari_job_total_cycles" + label,
		"ari_job_cycles_per_second" + label,
		"ari_job_eta_seconds" + label,
		"ari_job_no_progress_cycles" + label,
		"ari_job_in_flight_packets" + label,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q during a running job", want)
		}
	}
	first := metricValue(body, "ari_job_progress_cycles"+label)
	pollUntil(t, 5*time.Second, "progress cycles to advance", func() bool {
		_, b := getBody(t, ts.URL+"/metrics")
		return metricValue(b, "ari_job_progress_cycles"+label) > first
	})
}

// abortAndWait tears down a server running a never-finishing job.
func abortAndWait(t *testing.T, s *serve.Server) {
	t.Helper()
	s.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Error(err)
	}
}

// TestNoCStateSnapshotsRunningJob: /debug/nocstate returns a structured NoC
// dump of the in-flight simulation, produced on the simulation's own
// goroutine at its next watchdog poll.
func TestNoCStateSnapshotsRunningJob(t *testing.T) {
	r := testRunner(t)
	r.Base.MeasureCycles = 1 << 40
	s, ts := startServer(t, serve.Config{Runner: r, MaxInFlight: 1})
	t.Cleanup(func() { abortAndWait(t, s) })
	blockedJob(t, r.Monitor, ts.URL)

	code, body := getBody(t, ts.URL+"/debug/nocstate")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/nocstate = %d", code)
	}
	var out struct {
		Jobs []struct {
			Job   string `json:"job"`
			Error string `json:"error"`
			State struct {
				Cycle     int64  `json:"cycle"`
				Benchmark string `json:"benchmark"`
				Scheme    string `json:"scheme"`
				Request   *struct {
					InFlight int `json:"in_flight"`
				} `json:"request"`
			} `json:"state"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("unparsable response %q: %v", body, err)
	}
	if len(out.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1 (%s)", len(out.Jobs), body)
	}
	j := out.Jobs[0]
	if j.Error != "" {
		t.Fatalf("snapshot errored: %s", j.Error)
	}
	if j.Job != "bfs/XY-Baseline" || j.State.Benchmark != "bfs" {
		t.Fatalf("wrong job identity: %+v", j)
	}
	if j.State.Cycle <= 0 {
		t.Fatalf("snapshot has no cycle: %+v", j.State)
	}
	if j.State.Request == nil {
		t.Fatalf("snapshot has no request-fabric dump: %s", body)
	}
}

// TestNoCStateEmptyWhenIdle: no active jobs -> an empty jobs array, not an
// error or a hang.
func TestNoCStateEmptyWhenIdle(t *testing.T) {
	_, ts := startServer(t, serve.Config{Runner: testRunner(t)})
	code, body := getBody(t, ts.URL+"/debug/nocstate")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/nocstate = %d", code)
	}
	if !strings.Contains(body, `"jobs":[]`) {
		t.Fatalf("idle response = %q, want empty jobs array", body)
	}
}

// TestPprofEndpointsServed: the profiler handlers are mounted on the
// server's own mux (the DefaultServeMux is never exposed).
func TestPprofEndpointsServed(t *testing.T) {
	_, ts := startServer(t, serve.Config{Runner: testRunner(t)})
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/heap",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
	} {
		code, body := getBody(t, ts.URL+path)
		if code != http.StatusOK {
			t.Errorf("GET %s = %d", path, code)
		}
		if len(body) == 0 {
			t.Errorf("GET %s returned an empty body", path)
		}
	}
}

// TestObservabilityEndpointsLeakNothingAcrossDrain hammers every new
// endpoint while a job runs, drains the server, and asserts the goroutine
// count returns to baseline — the soak guarantee extended to the
// observability surface.
func TestObservabilityEndpointsLeakNothingAcrossDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	r := testRunner(t)
	r.Base.MeasureCycles = 1 << 40
	s, ts := startServer(t, serve.Config{Runner: r, MaxInFlight: 1})
	blockedJob(t, r.Monitor, ts.URL)

	// Concurrent scrape load across all observability endpoints, including
	// nocstate fetches that will be cut off mid-handshake by the abort.
	stop := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range []string{"/metrics", "/debug/nocstate", "/debug/pprof/", "/v1/stats"} {
					resp, err := http.Get(ts.URL + p)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)

	// Drain with a deadline the blocked job cannot meet: it is aborted.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	close(stop)
	for i := 0; i < 4; i++ {
		<-done
	}
	ts.Close()
	goroutineBaseline(t, base)
}
