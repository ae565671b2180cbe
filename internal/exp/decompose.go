package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Decompose reproduces the paper's motivation analysis (Figs. 2/3): it runs
// bench under each scheme with sampled packet-lifetime tracing on the reply
// network and attributes mean reply latency to its components — NI
// injection queueing (the bottleneck the paper removes), network transit
// and ejection. sample records every sample-th packet (1 = all); schemes
// defaults to baseline vs. Ada-ARI. Runs bypass the Runner cache because
// traces are not part of Result; horizons come from base, so keep them
// short. Schemes whose reply fabric has no per-hop state (ideal, DA2mesh)
// cannot be decomposed and are rejected.
func Decompose(base core.Config, bench string, sample uint64, schemes ...core.Scheme) (*Figure, error) {
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

	table := stats.NewTable("scheme", "replies", "queue", "network", "eject", "total", "queue_share")
	summary := make(map[string]float64)
	fig := &Figure{
		ID:      "decompose",
		Title:   fmt.Sprintf("Reply-latency decomposition on %s (trace-sampled, 1/%d packets)", bench, sample),
		Paper:   "Figs. 2/3: reply latency is dominated by MC-side injection queueing, not network transit",
		Table:   table,
		Summary: summary,
	}

	for _, sch := range schemes {
		cfg := base
		cfg.Scheme = sch
		sim, err := core.NewSimulator(cfg, kernel)
		if err != nil {
			return nil, fmt.Errorf("exp: decompose %s/%s: %w", bench, sch, err)
		}
		rep := sim.ReplyMesh()
		if rep == nil {
			return nil, fmt.Errorf("exp: decompose: scheme %s has no traceable reply fabric", sch)
		}
		coll := obs.NewCollector("rep")
		rep.SetTracer(coll, sample)
		if _, err := sim.RunChecked(core.CheckOptions{}); err != nil {
			return nil, fmt.Errorf("exp: decompose %s/%s: %w", bench, sch, err)
		}
		d := coll.Decompose(noc.ReadReply, noc.WriteReply)
		table.AddRow(sch.String(),
			fmt.Sprintf("%d", d.Packets),
			fmt.Sprintf("%.1f", d.Queue.Value()),
			fmt.Sprintf("%.1f", d.Net.Value()),
			fmt.Sprintf("%.1f", d.Eject.Value()),
			fmt.Sprintf("%.1f", d.Total.Value()),
			fmt.Sprintf("%.3f", d.QueueFraction()))
		summary["queue_share_"+sch.String()] = d.QueueFraction()
	}
	fig.Notes = append(fig.Notes,
		"queue = NI enqueue -> injection grant; network = injection -> last switch traversal; eject = last switch -> tail consumed",
		"traced from sampled packet lifecycles (internal/obs), not end-of-run aggregates")
	return fig, nil
}
