package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SLOFigure renders the latency-SLO view of the paper's headline claim: it
// runs bench under each scheme with reply-packet lifetime tracing, feeds
// every sampled reply's end-to-end latency (NI enqueue -> tail consumed, in
// NoC cycles) into an obs.Histogram, and reports the latency distribution
// (p50/p95/p99) plus the fraction of replies meeting a cycle budget — the
// simulator-side analogue of the serving layer's SLO compliance gauge.
//
// thresholdCycles is the reply-latency budget; when <= 0 it is derived as
// the first scheme's p95 (rounded up), so the figure reads "the baseline
// meets its own p95 budget 95% of the time — how often does ARI meet the
// same budget?". sample records every sample-th reply (1 = all); schemes
// defaults to baseline vs. Ada-ARI. Like Decompose, runs bypass the Runner
// cache because traces are not part of Result, and schemes without a
// traceable reply fabric are rejected. Everything downstream of the seeded
// simulator is deterministic, so the figure is byte-stable run to run.
func SLOFigure(base core.Config, bench string, sample uint64, thresholdCycles int64, schemes ...core.Scheme) (*Figure, error) {
	kernel, err := trace.ByName(bench)
	if err != nil {
		return nil, err
	}
	if sample == 0 {
		sample = 1
	}
	if len(schemes) == 0 {
		schemes = []core.Scheme{core.XYBaseline, core.AdaARI}
	}

	type schemeDist struct {
		scheme core.Scheme
		snap   obs.HistSnapshot
	}
	dists := make([]schemeDist, 0, len(schemes))
	for _, sch := range schemes {
		cfg := base
		cfg.Scheme = sch
		sim, err := core.NewSimulator(cfg, kernel)
		if err != nil {
			return nil, fmt.Errorf("exp: slo %s/%s: %w", bench, sch, err)
		}
		rep := sim.ReplyMesh()
		if rep == nil {
			return nil, fmt.Errorf("exp: slo: scheme %s has no traceable reply fabric", sch)
		}
		coll := obs.NewCollector("rep")
		rep.SetTracer(coll, sample)
		if _, err := sim.RunChecked(core.CheckOptions{}); err != nil {
			return nil, fmt.Errorf("exp: slo %s/%s: %w", bench, sch, err)
		}
		var hist obs.Histogram
		for _, p := range coll.Done() {
			if p.Type != noc.ReadReply && p.Type != noc.WriteReply {
				continue
			}
			hist.Observe(p.Ejected - p.Enqueued)
		}
		snap := hist.Snapshot()
		if snap.Count == 0 {
			return nil, fmt.Errorf("exp: slo %s/%s: no reply packets completed (horizons too short?)", bench, sch)
		}
		dists = append(dists, schemeDist{scheme: sch, snap: snap})
	}

	if thresholdCycles <= 0 {
		thresholdCycles = int64(math.Ceil(dists[0].snap.Quantile(0.95)))
	}

	table := stats.NewTable("scheme", "replies", "p50", "p95", "p99", "mean", "compliance")
	summary := map[string]float64{"threshold_cycles": float64(thresholdCycles)}
	fig := &Figure{
		ID: "slo",
		Title: fmt.Sprintf("Reply-latency SLO on %s: fraction of replies within %d cycles (trace-sampled, 1/%d packets)",
			bench, thresholdCycles, sample),
		Paper:   "headline: removing the MC-side injection bottleneck collapses the reply-latency tail",
		Table:   table,
		Summary: summary,
	}
	for _, d := range dists {
		c := d.snap.Compliance(thresholdCycles)
		table.AddRow(d.scheme.String(),
			fmt.Sprintf("%d", d.snap.Count),
			fmt.Sprintf("%.1f", d.snap.Quantile(0.50)),
			fmt.Sprintf("%.1f", d.snap.Quantile(0.95)),
			fmt.Sprintf("%.1f", d.snap.Quantile(0.99)),
			fmt.Sprintf("%.1f", d.snap.Mean()),
			fmt.Sprintf("%.4f", c))
		summary["compliance_"+d.scheme.String()] = c
	}
	fig.Notes = append(fig.Notes,
		"latency = NI enqueue -> tail consumed per sampled reply packet, binned by obs.Histogram (log2 buckets); quantiles are interpolated within buckets",
		fmt.Sprintf("compliance = fraction of replies within the %d-cycle budget (derived from the first scheme's p95 when not given)", thresholdCycles),
		"read compliance together with the replies column: a scheme that removes the injection bottleneck completes more replies per horizon, so it carries more in-flight load when its per-reply latency is judged")
	return fig, nil
}
