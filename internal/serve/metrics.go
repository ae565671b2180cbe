package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"time"

	"repro/internal/obs"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format via obs.PromWriter: the outcome counters and stage histograms the
// pipeline's tables declare, per-job progress from the run monitor (cycles,
// cycles/sec, ETA, watchdog state), and process metrics from the Go runtime.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var p obs.PromWriter
	st := s.Stats()
	s.mu.Lock()
	counts := s.counts
	s.mu.Unlock()

	p.Metric("ari_jobs_admitted", "Jobs currently holding an admission slot (executing + waiting).", "gauge", float64(st.Admitted))
	p.Family("ari_jobs_total", "Submissions by how they ended, one sample per row of the outcomes table (DESIGN.md §9): "+
		"cached, estimated, peer and ok are answered 2xx and timed in ari_job_seconds; bad_request is the client's 400; "+
		"draining, shed, cancelled and error are failures; abandoned had no client left to answer.", "counter")
	for o, row := range outcomes {
		p.Sample("ari_jobs_total", obs.Labels("outcome", row.name), float64(counts[o]))
	}
	p.Metric("ari_draining", "1 once admission is closed.", "gauge", obs.Bool(st.Draining))
	p.Metric("ari_service_time_seconds", "EWMA of observed simulation wall time.", "gauge", st.ServiceTimeMs/1000)
	p.Metric("ari_uptime_seconds", "Server process uptime.", "gauge", time.Since(s.started).Seconds())

	// Per-job progress, labelled by run identity. One gauge family per
	// dimension, the Prometheus-idiomatic shape of the monitor's snapshot.
	progress := s.cfg.Runner.Monitor.Snapshot()
	perJob := func(name, help string, read func(i int) float64) {
		p.Family(name, help, "gauge")
		for i, pr := range progress {
			p.Sample(name, obs.Labels("job", pr.Name), read(i))
		}
	}
	p.Metric("ari_jobs_running", "Simulations currently executing.", "gauge", float64(len(progress)))
	perJob("ari_job_progress_cycles", "Last reported NoC cycle of the run.", func(i int) float64 { return float64(progress[i].Cycle) })
	perJob("ari_job_total_cycles", "Run horizon in cycles (warmup + measurement).", func(i int) float64 { return float64(progress[i].TotalCycles) })
	perJob("ari_job_cycles_per_second", "Observed simulation rate.", func(i int) float64 { return progress[i].CyclesPerSec })
	perJob("ari_job_eta_seconds", "Extrapolated time to completion (-1 = unknown).", func(i int) float64 { return progress[i].ETASeconds })
	perJob("ari_job_no_progress_cycles", "Watchdog deadlock timer: cycles without any fabric moving a flit.", func(i int) float64 { return float64(progress[i].NoProgressFor) })
	perJob("ari_job_in_flight_packets", "In-flight packets across both fabrics.", func(i int) float64 { return float64(progress[i].ReqInFlight + progress[i].RepInFlight) })

	p.Histogram("ari_job_seconds", "Full submission latency of 2xx answers (cache hits, estimates, peer hits and runs).",
		s.jobHist.Snapshot(), 1e-6)
	for i, st := range stages {
		if st.metric != "" {
			p.Histogram(st.metric, st.help, s.stageHist[i].Snapshot(), 1e-6)
		}
	}
	p.Metric("ari_trace_spans", "Spans held in the in-memory recorder.", "gauge", float64(s.spans.Len()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Metric("go_goroutines", "Live goroutines.", "gauge", float64(runtime.NumGoroutine()))
	p.Metric("go_heap_alloc_bytes", "Heap bytes allocated and in use.", "gauge", float64(ms.HeapAlloc))
	p.Metric("go_sys_bytes", "Bytes obtained from the OS.", "gauge", float64(ms.Sys))
	p.Metric("go_gc_runs_total", "Completed GC cycles.", "counter", float64(ms.NumGC))
	p.Metric("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", "counter", float64(ms.PauseTotalNs)/1e9)

	p.ServeText(w)
}

// nocStateEntry is one job's entry in the /debug/nocstate response.
type nocStateEntry struct {
	Job string `json:"job"`
	// State is core.Simulator.StateDumpJSON's payload: per-fabric router,
	// VC, credit and oldest-packet state.
	State json.RawMessage `json:"state,omitempty"`
	Error string          `json:"error,omitempty"`
}

// handleNoCState serves GET /debug/nocstate: a JSON NoC state snapshot of
// every in-flight job, so a watchdog trip (or a suspiciously slow run) is
// diagnosable remotely. Snapshots are produced by each run's own goroutine
// at its next watchdog poll — the handler only requests and waits, bounded
// by a short deadline so a wedged run reports an error instead of hanging
// the endpoint.
func (s *Server) handleNoCState(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	entries := []nocStateEntry{}
	for _, st := range s.cfg.Runner.Monitor.Active() {
		e := nocStateEntry{Job: st.Name()}
		dump, err := st.FetchState(ctx)
		if err != nil {
			// The run finished, or is too stuck to reach its next poll
			// within the deadline — itself a diagnostic.
			e.Error = "no snapshot: " + err.Error()
		} else {
			e.State = dump
		}
		entries = append(entries, e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": entries})
}

// handleTrace renders one locally recorded trace (?trace=<id>, default the
// latest root) as a Chrome trace_event document.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	trace := r.URL.Query().Get("trace")
	if trace == "" {
		trace = s.spans.LatestTrace()
	}
	spans := s.spans.Spans(trace)
	if trace == "" || len(spans) == 0 {
		WriteError(w, http.StatusNotFound, "trace not found; enable sampling with -trace-sample")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteSpanTrace(w, spans)
}
