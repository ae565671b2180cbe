package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Cluster federation: GET /metrics/cluster scrapes every replica's
// /metrics, relabels each sample with replica="<url>", and serves the union
// as one exposition document — one scrape target covers the whole cluster.
// HELP/TYPE headers are deduplicated across replicas (every replica emits
// identical families); ari_cluster_scrape_up reports which replicas
// answered. GET /debug/trace is the same merge for one trace's spans.

// handleClusterMetrics serves the federated rollup of all replica scrapes.
func (g *Gateway) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	replicas := g.ring.Replicas()
	bodies := g.getAll(r.Context(), "/metrics")

	var p obs.PromWriter
	p.Family("ari_cluster_scrape_up", "Whether the replica answered the federated scrape.", "gauge")
	for i, rep := range replicas {
		p.Sample("ari_cluster_scrape_up", obs.Labels("replica", rep), obs.Bool(bodies[i] != nil))
	}
	seenHeader := make(map[string]bool)
	for i, rep := range replicas {
		if bodies[i] != nil {
			relabelExposition(&p, string(bodies[i]), obs.Labels("replica", rep), seenHeader)
		}
	}
	p.ServeText(w)
}

// handleTrace renders one trace (?trace=<id>, default the latest locally
// recorded root) as one Chrome trace_event timeline: the gateway's spans plus
// every replica's /debug/spans for the same trace ID — routing, serving and
// the run's sampled NoC packets (DESIGN.md §15).
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	trace := r.URL.Query().Get("trace")
	if trace == "" {
		trace = g.spans.LatestTrace()
	}
	if trace == "" {
		serve.WriteError(w, http.StatusNotFound, "no traces recorded; enable sampling with -trace-sample")
		return
	}
	spans := g.spans.Spans(trace)
	for _, raw := range g.getAll(r.Context(), "/debug/spans?trace="+trace) {
		var got []obs.Span
		if json.Unmarshal(raw, &got) == nil {
			spans = append(spans, got...)
		}
	}
	if len(spans) == 0 {
		serve.WriteError(w, http.StatusNotFound, "trace not found: "+trace)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteSpanTrace(w, spans)
}

// getAll GETs path from every replica at once, bounded as a whole by 2s.
// out[i] is ring replica i's 200 body, nil on any failure: federation is
// best-effort, an unreachable replica contributes nothing rather than
// failing the export.
func (g *Gateway) getAll(ctx context.Context, path string) [][]byte {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	replicas := g.ring.Replicas()
	out := make([][]byte, len(replicas))
	var wg sync.WaitGroup
	for i, rep := range replicas {
		wg.Add(1)
		go func(i int, rep string) {
			defer wg.Done()
			out[i], _ = serve.GetOK(ctx, g.cfg.HTTPClient, rep+path, 16<<20)
		}(i, rep)
	}
	wg.Wait()
	return out
}

// relabelExposition copies one exposition document into p, injecting label
// into every sample line. Comment lines (# HELP / # TYPE) pass through once
// per family across all replicas; malformed lines are dropped.
func relabelExposition(p *obs.PromWriter, body, label string, seenHeader map[string]bool) {
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// "# HELP name ..." / "# TYPE name ..." — dedup per (kind, name).
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			key := f[1] + " " + f[2]
			if seenHeader[key] {
				continue
			}
			seenHeader[key] = true
			p.Raw(line)
			continue
		}
		if rl, ok := relabelSample(line, label); ok {
			p.Raw(rl)
		}
	}
}

// relabelSample injects the label pair(s) into one sample line. Insertion
// happens right after the metric name (before any existing label list), so
// no quote-aware scan of the existing labels is needed.
func relabelSample(line, label string) (string, bool) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", false
	}
	if line[i] == ' ' {
		return line[:i] + "{" + label + "}" + line[i:], true
	}
	if i+1 < len(line) && line[i+1] == '}' { // empty label set: name{} value
		return line[:i+1] + label + line[i+1:], true
	}
	return line[:i+1] + label + "," + line[i+1:], true
}
