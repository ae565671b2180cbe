package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/stats"
)

// xyBaseline is the one point of the motivation figures that characterise
// the baseline alone.
var xyBaseline = SchemePoints(core.XYBaseline)

// TableI prints the evaluated configuration, mirroring the paper's Table I.
func TableI(r *Runner) (*Figure, error) {
	cfg := r.Base
	t := stats.NewTable("Parameter", "Value")
	mesh := noc.Mesh{Width: cfg.MeshWidth, Height: cfg.MeshHeight}
	t.AddRow("Compute Nodes", fmt.Sprintf("%d, %d MHz", mesh.Nodes()-cfg.NumMC, cfg.CoreClockNum))
	t.AddRow("Memory Controllers", fmt.Sprintf("%d, FR-FCFS", cfg.NumMC))
	t.AddRow("Warp Size", "32")
	t.AddRow("SIMD Pipeline Width", "8")
	t.AddRow("L1 Cache / Core", fmt.Sprintf("%dKB", cfg.Core.L1.SizeBytes>>10))
	t.AddRow("L2 Cache / MC", fmt.Sprintf("%dKB", cfg.MC.L2.SizeBytes>>10))
	t.AddRow("Warp Scheduling", "Greedy-then-oldest")
	t.AddRow("MC Placement", "Diamond")
	t.AddRow("GDDR5 Timing", fmt.Sprintf("tRP=%d tRC=%d tRRD=%d tRAS=%d tRCD=%d tCL=%d",
		cfg.MC.DRAM.TRP, cfg.MC.DRAM.TRC, cfg.MC.DRAM.TRRD, cfg.MC.DRAM.TRAS, cfg.MC.DRAM.TRCD, cfg.MC.DRAM.TCL))
	t.AddRow("Memory Clock", fmt.Sprintf("%.2f GHz", float64(cfg.MemClockNum)/float64(cfg.MemClockDen)))
	t.AddRow("Topology", fmt.Sprintf("2D Mesh %dx%d", cfg.MeshWidth, cfg.MeshHeight))
	t.AddRow("Routing", "XY, Min. adaptive")
	t.AddRow("Interconnect & L2 Clock", "1 GHz")
	t.AddRow("Virtual Channels", fmt.Sprintf("%d per port, 1 pkt per VC", cfg.VCs))
	t.AddRow("Allocator", "Separable Input First")
	t.AddRow("Link Bandwidth", fmt.Sprintf("%d bit/cycle", cfg.RepLinkBits))
	longPkt := noc.PacketSize(noc.ReadReply, cfg.RepLinkBits, cfg.Core.L1.LineBytes)
	t.AddRow("NI Injection Queue", fmt.Sprintf("%d flits", 4*longPkt))
	return &Figure{
		ID:    "Table I",
		Title: "Key parameters for evaluation",
		Table: t,
	}, nil
}

// Fig3 compares request vs reply in-network packet latency per benchmark
// under the baseline (paper: request ~= 5.6x reply on average, despite the
// bottleneck living on the reply side).
func Fig3(r *Runner) (*Figure, error) {
	res, err := r.Grid(context.Background(), r.Benchmarks, xyBaseline)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("benchmark", "req_latency", "rep_latency", "req/rep (norm)")
	var ratios []float64
	for i, k := range r.Benchmarks {
		req := meanNet(&res[i][0].Req, noc.ReadRequest, noc.WriteRequest)
		rep := meanNet(&res[i][0].Rep, noc.ReadReply, noc.WriteReply)
		ratio := safeDiv(req, rep)
		ratios = append(ratios, ratio)
		t.AddRow(k.Name, fmt.Sprintf("%.1f", req), fmt.Sprintf("%.1f", rep), fmt.Sprintf("%.2f", ratio))
	}
	avg := mean(ratios)
	return &Figure{
		ID:      "Fig 3",
		Title:   "Request vs reply packet latency (normalised to reply network)",
		Paper:   "request packet latency ~= 5.6x reply packet latency on average",
		Table:   t,
		Summary: map[string]float64{"avg_req_over_rep": avg},
	}, nil
}

// Fig4 measures the IPC impact of doubling each network's link width
// (paper: 256-bit request links +0.8%, 256-bit reply links +25.6%).
func Fig4(r *Runner) (*Figure, error) {
	points := []Point{
		scheme("128-128", core.XYBaseline),
		scheme("256-128", core.XYBaseline, axis("reqlink").Point(256)),
		scheme("128-256", core.XYBaseline, axis("replink").Point(256)),
	}
	res, err := r.Grid(context.Background(), r.Benchmarks, points)
	if err != nil {
		return nil, err
	}
	t, _, gm := normalised(r.Benchmarks, points, res, ipcOf, "geomean", stats.GeoMean)
	return &Figure{
		ID:    "Fig 4",
		Title: "IPC for request-reply link width combinations (norm. to 128-128)",
		Paper: "doubling request links: +0.8% IPC; doubling reply links: +25.6%",
		Table: t,
		Summary: map[string]float64{
			"req_double_gain": gm[1] - 1,
			"rep_double_gain": gm[2] - 1,
		},
	}, nil
}

// Fig5 reports the flit-weighted packet-type mix (paper: the reply network
// carries ~72.7% of total NoC traffic vs 27.3% for the request network).
func Fig5(r *Runner) (*Figure, error) {
	res, err := r.Grid(context.Background(), r.Benchmarks, xyBaseline)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("benchmark", "read_req", "write_req", "read_rep", "write_rep", "reply_share")
	var replyShares []float64
	for i, k := range r.Benchmarks {
		var total float64
		shares := make([]float64, noc.NumPacketTypes)
		for pt := 0; pt < noc.NumPacketTypes; pt++ {
			f := float64(res[i][0].Req.FlitsInjected[pt] + res[i][0].Rep.FlitsInjected[pt])
			shares[pt] = f
			total += f
		}
		if total > 0 {
			for pt := range shares {
				shares[pt] /= total
			}
		}
		reply := shares[noc.ReadReply] + shares[noc.WriteReply]
		replyShares = append(replyShares, reply)
		t.AddRow(k.Name,
			fmt.Sprintf("%.1f%%", 100*shares[noc.ReadRequest]),
			fmt.Sprintf("%.1f%%", 100*shares[noc.WriteRequest]),
			fmt.Sprintf("%.1f%%", 100*shares[noc.ReadReply]),
			fmt.Sprintf("%.1f%%", 100*shares[noc.WriteReply]),
			fmt.Sprintf("%.1f%%", 100*reply))
	}
	avg := mean(replyShares)
	return &Figure{
		ID:      "Fig 5",
		Title:   "Relative percentage of the 4 packet types (flit-weighted)",
		Paper:   "reply network carries ~72.7% of total NoC traffic",
		Table:   t,
		Summary: map[string]float64{"avg_reply_traffic_share": avg},
	}, nil
}

// LinkUtil reproduces §3's utilisation analysis: reply-network internal
// links average ~0.084 flit/cycle while injection links run ~0.39
// flit/cycle (>4.5x), pinpointing the injection points as the bottleneck.
func LinkUtil(r *Runner) (*Figure, error) {
	res, err := r.Grid(context.Background(), r.Benchmarks, xyBaseline)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("benchmark", "reply_link_util", "reply_inj_util(MC)", "ratio")
	var links, injs []float64
	numMC := float64(r.Base.NumMC)
	for i, k := range r.Benchmarks {
		rep := &res[i][0].Rep
		lu := rep.MeshLinkUtil()
		// Injection-link utilisation over the links that actually inject
		// (the MC nodes), not every node's unused NI link.
		iu := safeDiv(float64(rep.InjLinkFlits)/float64(rep.Cycles), numMC)
		links = append(links, lu)
		injs = append(injs, iu)
		t.AddRow(k.Name, fmt.Sprintf("%.4f", lu), fmt.Sprintf("%.4f", iu), fmt.Sprintf("%.1fx", safeDiv(iu, lu)))
	}
	avgLink, avgInj := mean(links), mean(injs)
	return &Figure{
		ID:    "§3 util",
		Title: "Reply-network link vs injection-link utilisation (flits/cycle)",
		Paper: "average link util 0.084 vs injection-link util 0.39 (>4.5x)",
		Table: t,
		Summary: map[string]float64{
			"avg_reply_link_util": avgLink,
			"avg_reply_inj_util":  avgInj,
			"inj_over_link":       safeDiv(avgInj, avgLink),
		},
	}, nil
}

// Fig6 grows the NI injection-queue capacity and shows occupancy tracking
// it (capacity 4 -> 80 long packets), confirming the injection point as the
// bottleneck.
func Fig6(r *Runner) (*Figure, error) {
	benches := []string{"pathfinder", "hotspot", "srad", "bfs"}
	caps := axis("niqueue")
	longPkt := noc.PacketSize(noc.ReadReply, r.Base.RepLinkBits, r.Base.Core.L1.LineBytes)

	kernels, err := kernelsNamed(benches...)
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(caps.Values))
	for i, cp := range caps.Values {
		points[i] = scheme(fmt.Sprint(cp), core.XYBaseline, caps.Point(cp))
	}
	res, err := r.Grid(context.Background(), kernels, points)
	if err != nil {
		return nil, err
	}
	header := []string{"capacity(pkts)"}
	header = append(header, benches...)
	t := stats.NewTable(header...)
	var trackRatio []float64
	for ci, cp := range caps.Values {
		row := []string{points[ci].Label}
		for bi := range benches {
			occPkts := res[bi][ci].NIOccAvgFlits / float64(longPkt)
			row = append(row, fmt.Sprintf("%.1f", occPkts))
			trackRatio = append(trackRatio, safeDiv(occPkts, float64(cp)))
		}
		t.AddRow(row...)
	}
	return &Figure{
		ID:      "Fig 6",
		Title:   "NI injection queue occupancy vs capacity (long packets)",
		Paper:   "occupancy closely tracks capacity as it grows 4 -> 80 packets",
		Table:   t,
		Summary: map[string]float64{"avg_occupancy_over_capacity": mean(trackRatio)},
	}, nil
}

// meanNet averages in-network (inject->eject) latency over packet types.
func meanNet(s *noc.NetStats, types ...noc.PacketType) float64 {
	var m stats.Mean
	for _, t := range types {
		m.Merge(s.NetLatency[t])
	}
	return m.Value()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
