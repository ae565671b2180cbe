package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tracedSample is the reply-packet sampling rate of the registry's traced
// figure (decompose): one packet in four.
const tracedSample = 4

// decomposeSchemes are the schemes the decomposition compares: the mesh
// baseline and ARI, and the DA2mesh pair (Fig 16).
var decomposeSchemes = []core.Scheme{core.XYBaseline, core.AdaARI, core.DA2MeshBase, core.DA2MeshARI}

// Decompose reproduces the paper's motivation analysis (Figs. 2/3): it runs
// bench under each scheme as one Runner dispatch, each job observed with its
// own collector tracing every sample-th reply-fabric packet (1 = all), and
// attributes each scheme's mean reply latency to its components — NI
// injection queueing (the bottleneck the paper removes), network transit and
// ejection. Observed jobs always simulate: a stored Result holds no trace.
func Decompose(r *Runner, bench string, sample uint64) (*Figure, error) {
	kernel, err := trace.ByName(bench)
	if err != nil {
		return nil, err
	}
	colls := make([]*obs.Collector, len(decomposeSchemes))
	jobs := make([]Job, len(decomposeSchemes))
	for i, sch := range decomposeSchemes {
		jobs[i] = Job{Cfg: r.withScheme(sch), Kernel: kernel, Observe: func(sim *core.Simulator) {
			// A fresh collector per attempt: a retried run starts over.
			colls[i] = obs.NewCollector("rep")
			sim.ReplyNet().SetTracer(colls[i], sample)
		}}
	}
	if _, err := r.RunAllContext(context.Background(), jobs); err != nil {
		return nil, err
	}
	table := stats.NewTable("scheme", "replies", "queue", "network", "eject", "total", "queue_share")
	summary := make(map[string]float64)
	for i, coll := range colls {
		sch := decomposeSchemes[i].String()
		d := coll.Decompose(noc.ReadReply, noc.WriteReply)
		table.AddRow(sch,
			fmt.Sprintf("%d", d.Packets),
			fmt.Sprintf("%.1f", d.Queue.Value()),
			fmt.Sprintf("%.1f", d.Net.Value()),
			fmt.Sprintf("%.1f", d.Eject.Value()),
			fmt.Sprintf("%.1f", d.Total.Value()),
			fmt.Sprintf("%.3f", d.QueueFraction()))
		summary["queue_share_"+sch] = d.QueueFraction()
	}
	return &Figure{
		ID:      "decompose",
		Title:   fmt.Sprintf("Reply-latency decomposition on %s (trace-sampled, 1/%d packets)", bench, sample),
		Paper:   "Figs. 2/3: reply latency is dominated by MC-side injection queueing, not network transit",
		Table:   table,
		Summary: summary,
		Notes: []string{
			"queue = NI enqueue -> injection grant; network = injection -> last switch traversal; eject = last switch -> tail consumed",
			"DA2Mesh rows: injection = a lane starts the head flit; the last switch = arrival at the destination's ejection queue",
			"traced from sampled packet lifecycles (internal/obs), not end-of-run aggregates",
		},
	}, nil
}
