package exp

import (
	"fmt"
	"math"

	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
)

// SLOFigure renders the latency-SLO view of the paper's headline claim: it
// runs bench traced (see traceReplies), feeds every sampled reply's
// end-to-end latency (NI enqueue -> tail consumed, in NoC cycles) into an
// obs.Histogram, and reports the latency distribution (p50/p95/p99) plus the
// fraction of replies meeting a cycle budget — the simulator-side analogue
// of the serving layer's SLO compliance gauge.
//
// thresholdCycles is the reply-latency budget; when <= 0 it is derived as
// the first scheme's p95 (rounded up), so the figure reads "the baseline
// meets its own p95 budget 95% of the time — how often does ARI meet the
// same budget?". Everything downstream of the seeded simulator is
// deterministic, so the figure is byte-stable run to run.
func SLOFigure(r *Runner, bench string, sample uint64, thresholdCycles int64) (*Figure, error) {
	colls, err := r.traceReplies(bench, sloSchemes, sample)
	if err != nil {
		return nil, err
	}
	snaps := make([]obs.HistSnapshot, len(colls))
	for i, coll := range colls {
		var hist obs.Histogram
		for _, p := range coll.Done() {
			if p.Type != noc.ReadReply && p.Type != noc.WriteReply {
				continue
			}
			hist.Observe(p.Ejected - p.Enqueued)
		}
		if snaps[i] = hist.Snapshot(); snaps[i].Count == 0 {
			return nil, fmt.Errorf("exp: slo %s/%s: no reply packets completed (horizons too short?)", bench, sloSchemes[i])
		}
	}

	if thresholdCycles <= 0 {
		thresholdCycles = int64(math.Ceil(snaps[0].Quantile(0.95)))
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
	for i, snap := range snaps {
		sch := sloSchemes[i].String()
		c := snap.Compliance(thresholdCycles)
		table.AddRow(sch,
			fmt.Sprintf("%d", snap.Count),
			fmt.Sprintf("%.1f", snap.Quantile(0.50)),
			fmt.Sprintf("%.1f", snap.Quantile(0.95)),
			fmt.Sprintf("%.1f", snap.Quantile(0.99)),
			fmt.Sprintf("%.1f", snap.Mean()),
			fmt.Sprintf("%.4f", c))
		summary["compliance_"+sch] = c
	}
	fig.Notes = append(fig.Notes,
		"latency = NI enqueue -> tail consumed per sampled reply packet, binned by obs.Histogram (log2 buckets); quantiles are interpolated within buckets",
		fmt.Sprintf("compliance = fraction of replies within the %d-cycle budget (derived from the first scheme's p95 when not given)", thresholdCycles),
		"read compliance together with the replies column: a scheme that removes the injection bottleneck completes more replies per horizon, so it carries more in-flight load when its per-reply latency is judged")
	return fig, nil
}
