package cluster

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// handleMetrics exposes the gateway's routing counters in Prometheus text
// format, mirroring ariserve's /metrics shape (internal/obs.PromWriter).
func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := g.Stats()
	var p obs.PromWriter
	p.Metric("arigate_requests_total", "Job submissions accepted for routing.", "counter", float64(st.Requests))
	p.Metric("arigate_shed_total", "Submissions answered 429 because every owner was down or shedding.", "counter", float64(st.Shed))
	p.Metric("arigate_failovers_total", "Attempts launched because a prior owner failed or shed.", "counter", float64(st.Failovers))
	p.Metric("arigate_hedges_total", "Attempts launched because a prior owner was slow.", "counter", float64(st.Hedges))
	p.Metric("arigate_hedge_wins_total", "Requests won by a hedged attempt.", "counter", float64(st.HedgeWins))
	p.Metric("arigate_replicas", "Replicas on the routing ring.", "gauge", float64(len(st.Replicas)))

	perReplica := func(name, help, typ string, read func(ReplicaStats) float64) {
		p.Family(name, help, typ)
		for _, r := range st.Replicas {
			p.Sample(name, obs.Labels("replica", r.URL), read(r))
		}
	}
	perReplica("arigate_replica_up", "Whether the replica's circuit is closed (routable).", "gauge", func(r ReplicaStats) float64 { return obs.Bool(r.Up) })
	perReplica("arigate_replica_routed_total", "Attempts sent to the replica.", "counter", func(r ReplicaStats) float64 { return float64(r.Routed) })
	perReplica("arigate_replica_failures_total", "Probe and proxy failures observed for the replica.", "counter", func(r ReplicaStats) float64 { return float64(r.Failures) })

	p.Histogram("arigate_route_seconds", "End-to-end routing latency of answered submissions.",
		g.routeHist.Snapshot(), 1e-6)
	p.Histogram("arigate_attempt_seconds", "Latency of individual proxied attempts (including failed and cancelled legs).",
		g.attemptHist.Snapshot(), 1e-6)
	g.slo.Report().WriteMetrics(&p, "arigate")

	p.Metric("arigate_trace_spans", "Spans held in the in-memory recorder.", "gauge", float64(g.spans.Len()))
	p.Metric("arigate_uptime_seconds", "Seconds since the gateway started.", "gauge", time.Since(g.started).Seconds())
	p.ServeText(w)
}
