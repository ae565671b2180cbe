package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/stats"
)

// The paper's four headline figures, as the values our reproduction is
// scored against (EXPERIMENTS.md).
const (
	paperFig11Gain           = 0.154 // Ada-ARI IPC over Ada-Baseline
	paperFig12StallReduction = 0.678 // MC reply-data stall, Ada-ARI vs Ada-Baseline
	paperFig5ReplyShare      = 0.727 // reply network's share of all flits
	paperFig3ReqOverRep      = 5.6   // request over reply in-network latency
)

// paperRows holds the benchmark's own evaluation of those four figures.
type paperRows struct {
	Fig11Gain, Fig12StallReduction, Fig5ReplyShare, Fig3ReqOverRep float64
}

// errPct is the mean relative distance from the paper's values, in percent.
func (p paperRows) errPct() float64 {
	rel := func(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }
	return 100 * (rel(p.Fig11Gain, paperFig11Gain) + rel(p.Fig12StallReduction, paperFig12StallReduction) +
		rel(p.Fig5ReplyShare, paperFig5ReplyShare) + rel(p.Fig3ReqOverRep, paperFig3ReqOverRep)) / 4
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// paperFigures evaluates the four figures over a result matrix
// m[group][scheme] with the definitions of internal/exp/{motivation,
// results}.go. ref is the scheme the figures normalise to and measure the
// baseline traffic under: XY-Baseline there, and here whenever the matrix
// has it (sweep-matrix); otherwise the first scheme of the workload.
func paperFigures(m []map[core.Scheme]core.Result, ref core.Scheme) paperRows {
	stallPerReply := func(r core.Result) float64 { return div(float64(r.MCStallTime), float64(r.RepliesSent)) }
	netLatency := func(s *noc.NetStats, types ...noc.PacketType) float64 {
		var mm stats.Mean
		for _, t := range types {
			mm.Merge(s.NetLatency[t])
		}
		return mm.Value()
	}
	var ipcBase, ipcARI, stallBase, stallARI, replyShare, reqOverRep []float64
	for _, g := range m {
		r := g[ref]
		ipcBase = append(ipcBase, div(g[core.AdaBaseline].IPC, r.IPC))
		ipcARI = append(ipcARI, div(g[core.AdaARI].IPC, r.IPC))
		stallBase = append(stallBase, div(stallPerReply(g[core.AdaBaseline]), stallPerReply(r)))
		stallARI = append(stallARI, div(stallPerReply(g[core.AdaARI]), stallPerReply(r)))

		var total, reply float64
		for pt := 0; pt < noc.NumPacketTypes; pt++ {
			f := float64(r.Req.FlitsInjected[pt] + r.Rep.FlitsInjected[pt])
			total += f
			if noc.PacketType(pt) == noc.ReadReply || noc.PacketType(pt) == noc.WriteReply {
				reply += f
			}
		}
		replyShare = append(replyShare, div(reply, total))
		reqOverRep = append(reqOverRep, div(
			netLatency(&r.Req, noc.ReadRequest, noc.WriteRequest),
			netLatency(&r.Rep, noc.ReadReply, noc.WriteReply)))
	}
	return paperRows{
		Fig11Gain:           div(stats.GeoMean(ipcARI), stats.GeoMean(ipcBase)) - 1,
		Fig12StallReduction: 1 - div(mean(stallARI), mean(stallBase)),
		Fig5ReplyShare:      mean(replyShare),
		Fig3ReqOverRep:      mean(reqOverRep),
	}
}

// simulatedStats records the exact per-layer metrics: means over the job
// list of the modelled components' statistics, the ARI gain, and the
// paper rows. They depend on -seed only, never on host time.
func (e *env) simulatedStats() {
	matrix := map[int]map[core.Scheme]core.Result{}
	var groups []int
	per := map[string][]float64{}
	for _, j := range e.jobs {
		r := j.res
		if matrix[j.group] == nil {
			matrix[j.group] = map[core.Scheme]core.Result{}
			groups = append(groups, j.group)
		}
		matrix[j.group][j.Cfg.Scheme] = r
		per["noc.rep_inj_link_util"] = append(per["noc.rep_inj_link_util"], r.Rep.InjLinkUtil())
		per["noc.rep_mesh_link_util"] = append(per["noc.rep_mesh_link_util"], r.Rep.MeshLinkUtil())
		per["noc.req_mesh_link_util"] = append(per["noc.req_mesh_link_util"], r.Req.MeshLinkUtil())
		per["noc.rep_latency_cycles"] = append(per["noc.rep_latency_cycles"], r.Rep.AvgLatency(noc.ReadReply, noc.WriteReply))
		per["noc.req_latency_cycles"] = append(per["noc.req_latency_cycles"], r.Req.AvgLatency(noc.ReadRequest, noc.WriteRequest))
		per["noc.ni_occupancy_flits"] = append(per["noc.ni_occupancy_flits"], r.NIOccAvgFlits)
		per["noc.ni_full_rejects"] = append(per["noc.ni_full_rejects"], float64(r.Rep.NIFullRejects))
		per["noc.credit_stall_cycles"] = append(per["noc.credit_stall_cycles"], float64(r.Req.CreditStallCycles+r.Rep.CreditStallCycles))
		per["mem.mc_stall_per_reply"] = append(per["mem.mc_stall_per_reply"], div(float64(r.MCStallTime), float64(r.RepliesSent)))
		per["mem.dram_row_hit_rate"] = append(per["mem.dram_row_hit_rate"], r.DRAMRowHitRate)
		per["cache.l1_hit_rate"] = append(per["cache.l1_hit_rate"], r.L1HitRate)
		per["cache.l2_hit_rate"] = append(per["cache.l2_hit_rate"], r.L2HitRate)
	}
	for name, xs := range per {
		e.rec.add(name, mean(xs))
	}

	rows := make([]map[core.Scheme]core.Result, len(groups))
	var gain []float64
	for i, g := range groups {
		rows[i] = matrix[g]
		gain = append(gain, div(matrix[g][core.AdaARI].IPC, matrix[g][core.AdaBaseline].IPC))
	}
	e.rec.add("core.ipc_gain_pct", 100*(stats.GeoMean(gain)-1))
	p := paperFigures(rows, e.w.Schemes[0])
	e.rec.add("paper.fig11_ada_ari_gain", p.Fig11Gain)
	e.rec.add("paper.fig12_ada_ari_stall_reduction", p.Fig12StallReduction)
	e.rec.add("paper.fig5_reply_flit_share", p.Fig5ReplyShare)
	e.rec.add("paper.fig3_req_over_rep_latency", p.Fig3ReqOverRep)
	e.rec.add("paper_err_pct", p.errPct())
	_, low48 := e.digest()
	e.rec.add("core.result_digest48", low48)
}
