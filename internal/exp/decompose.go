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
// figures (decompose, slo): one packet in four.
const tracedSample = 4

// sloSchemes are the schemes the SLO figure compares; the decomposition adds
// the DA2mesh pair (Fig 16) to them.
var (
	sloSchemes       = []core.Scheme{core.XYBaseline, core.AdaARI}
	decomposeSchemes = []core.Scheme{core.XYBaseline, core.AdaARI, core.DA2MeshBase, core.DA2MeshARI}
)

// traceReplies runs bench under each of schemes through the Runner's run
// path — watchdogs, timeout, retries, panic recovery — with every sample-th
// reply-fabric packet traced (1 = all), and returns one collector per
// scheme. The runs bypass the result store because traces are not part of
// Result.
func (r *Runner) traceReplies(bench string, schemes []core.Scheme, sample uint64) ([]*obs.Collector, error) {
	kernel, err := trace.ByName(bench)
	if err != nil {
		return nil, err
	}
	colls := make([]*obs.Collector, len(schemes))
	for i, sch := range schemes {
		ctx := WithInstrument(context.Background(), func(_ Job, sim *core.Simulator) {
			// A fresh collector per attempt: a retried run starts over.
			colls[i] = obs.NewCollector("rep")
			sim.ReplyNet().SetTracer(colls[i], sample)
		})
		if _, err := r.simulateRetry(ctx, Job{Cfg: r.withScheme(sch), Kernel: kernel}); err != nil {
			return nil, err
		}
	}
	return colls, nil
}

// Decompose reproduces the paper's motivation analysis (Figs. 2/3): it runs
// bench traced (see traceReplies) and attributes each scheme's mean reply
// latency to its components — NI injection queueing (the bottleneck the
// paper removes), network transit and ejection.
func Decompose(r *Runner, bench string, sample uint64) (*Figure, error) {
	colls, err := r.traceReplies(bench, decomposeSchemes, sample)
	if err != nil {
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
