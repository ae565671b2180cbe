package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/stats"
)

// Fig9 varies the number of ARI priority levels on bfs and mummerGPU
// (paper: two levels reap most of the benefit; more levels can even hurt).
func Fig9(r *Runner) (*Figure, error) {
	benches := []string{"bfs", "mummerGPU"}
	levels := axis("priolevels")
	kernels, err := kernelsNamed(benches...)
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(levels.Values))
	for i, l := range levels.Values {
		points[i] = scheme(fmt.Sprint(l), core.AdaARI, levels.Point(l))
	}
	res, err := r.Grid(context.Background(), kernels, points)
	if err != nil {
		return nil, err
	}
	header := []string{"levels"}
	header = append(header, benches...)
	t := stats.NewTable(header...)
	summary := map[string]float64{}
	for li, l := range levels.Values {
		row := []string{points[li].Label}
		for bi, name := range benches {
			base := res[bi][0].IPC // 1 level = no prioritisation
			gain := safeDiv(res[bi][li].IPC, base) - 1
			row = append(row, pct(gain))
			if l == 2 {
				summary["gain_2_levels_"+name] = gain
			}
		}
		t.AddRow(row...)
	}
	return &Figure{
		ID:      "Fig 9",
		Title:   "IPC improvement vs number of priority levels (rel. to 1 level)",
		Paper:   "two levels capture most benefit (e.g. ~6% bfs); more can reduce it",
		Table:   t,
		Summary: summary,
		Notes: []string{"bfs is one seed of a wide spread here: -fig stability gives its 2-level gain " +
			"over seeds 1-10 as a mean and a range (fig9_bfs_gain_*); read the sign there"},
	}, nil
}

// fig10Points is Fig 10's ablation set, all under adaptive routing.
var fig10Points = []Point{
	scheme("Baseline", core.AdaBaseline),
	scheme("Acc-Supply", core.AccSupply),
	scheme("Acc-Consume", core.AccConsume),
	scheme("Acc-Both-NoPri", core.AccBothNoPriority),
	scheme("Acc-Both-Pri(ARI)", core.AdaARI),
}

// Fig10 isolates the supply and consumption accelerations (paper: either
// alone is ineffective — supply-only can hurt — together +13.5%, plus
// priority for the full ARI).
func Fig10(r *Runner) (*Figure, error) {
	res, err := r.Grid(context.Background(), r.Benchmarks, fig10Points)
	if err != nil {
		return nil, err
	}
	t, norm, gm := normalised(r.Benchmarks, fig10Points, res, ipcOf, "geomean", stats.GeoMean)
	supplyHurts := 0
	for _, v := range norm[1] {
		if v < 1.0 {
			supplyHurts++
		}
	}
	return &Figure{
		ID:    "Fig 10",
		Title: "Ablation: accelerating supply and consumption separately and combined (IPC norm. to Ada-Baseline)",
		Paper: "Acc-Supply/Acc-Consume alone ~no gain (supply-only hurts 12/30); Acc-Both +13.5% geomean; priority adds more",
		Table: t,
		Summary: map[string]float64{
			"supply_only_gain":        gm[1] - 1,
			"consume_only_gain":       gm[2] - 1,
			"both_nopriority_gain":    gm[3] - 1,
			"ari_gain":                gm[4] - 1,
			"supply_hurts_benchmarks": float64(supplyHurts),
		},
	}, nil
}

// fig11Points is the main comparison of §7.2.
var fig11Points = []Point{
	scheme("XY-Base", core.XYBaseline),
	scheme("XY-ARI", core.XYARI),
	scheme("Ada-Base", core.AdaBaseline),
	scheme("Ada-MultiPort", core.AdaMultiPort),
	scheme("Ada-ARI", core.AdaARI),
}

// Fig11 is the headline performance comparison (paper: XY-ARI +8% over
// XY-Baseline; Ada-Baseline slightly below XY-Baseline; MultiPort +2% over
// Ada-Baseline; Ada-ARI +15.4% over Ada-Baseline, ~1.4x for a third of the
// benchmarks).
func Fig11(r *Runner) (*Figure, error) {
	res, err := r.Grid(context.Background(), r.Benchmarks, fig11Points)
	if err != nil {
		return nil, err
	}
	t, _, gm := normalised(r.Benchmarks, fig11Points, res, ipcOf, "geomean", stats.GeoMean)
	big := 0
	for _, row := range res {
		if safeDiv(row[4].IPC, row[2].IPC) >= 1.35 {
			big++
		}
	}
	return &Figure{
		ID:    "Fig 11",
		Title: "Performance comparison across schemes (IPC norm. to XY-Baseline)",
		Paper: "XY-ARI +8% vs XY-Base; MultiPort +2% vs Ada-Base; Ada-ARI +15.4% vs Ada-Base, ~1/3 of benchmarks near 1.4x",
		Table: t,
		Summary: map[string]float64{
			"xy_ari_gain":        gm[1]/gm[0] - 1,
			"ada_base_vs_xy":     gm[2]/gm[0] - 1,
			"multiport_gain":     gm[3]/gm[2] - 1,
			"ada_ari_gain":       gm[4]/gm[2] - 1,
			"benchmarks_near14x": float64(big),
		},
	}, nil
}

// Fig12 measures the reply-data stall time in the MCs (paper: XY-ARI
// −47.5%, Ada-ARI −67.8% vs the respective baselines). Because runs are
// fixed-horizon, stall time is normalised per reply sent.
func Fig12(r *Runner) (*Figure, error) {
	res, err := r.Grid(context.Background(), r.Benchmarks, fig11Points)
	if err != nil {
		return nil, err
	}
	stallPerReply := func(res core.Result) float64 {
		return safeDiv(float64(res.MCStallTime), float64(res.RepliesSent))
	}
	t, _, avgs := normalised(r.Benchmarks, fig11Points, res, stallPerReply, "mean", mean)
	return &Figure{
		ID:    "Fig 12",
		Title: "Data stall time in MCs due to NI injection-queue full (norm. per reply, to XY-Baseline)",
		Paper: "XY-ARI reduces stall ~47.5%; Ada-ARI ~67.8%; MultiPort helps little in general",
		Table: t,
		Summary: map[string]float64{
			"xy_ari_stall_reduction": 1 - safeDiv(avgs[1], avgs[0]),
			// Ada columns renormalised to Ada-Baseline.
			"ada_ari_stall_reduction":   1 - safeDiv(avgs[4], avgs[2]),
			"multiport_stall_reduction": 1 - safeDiv(avgs[3], avgs[2]),
		},
	}, nil
}

// Fig13 decomposes end-to-end packet latency into request and reply parts
// (NI queueing counts toward the reply part, §7.4). The paper's key point:
// ARI also shrinks request latency despite changing nothing on the request
// network — confirming the bottleneck is the reply side.
func Fig13(r *Runner) (*Figure, error) {
	res, err := r.Grid(context.Background(), r.Benchmarks, fig11Points)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("benchmark", "XY-Base(req+rep)", "XY-ARI", "Ada-Base", "Ada-MultiPort", "Ada-ARI")
	var reqDropXY, reqDropAda []float64
	totNorm := make([][]float64, len(fig11Points))
	for i, k := range r.Benchmarks {
		lat := func(s int) (req, rep float64) {
			req = res[i][s].Req.AvgLatency(noc.ReadRequest, noc.WriteRequest)
			rep = res[i][s].Rep.AvgLatency(noc.ReadReply, noc.WriteReply)
			return
		}
		baseReq, baseRep := lat(0)
		base := baseReq + baseRep
		row := []string{k.Name}
		for s := range fig11Points {
			rq, rp := lat(s)
			row = append(row, fmt.Sprintf("%.2f(%.2f+%.2f)", safeDiv(rq+rp, base), safeDiv(rq, base), safeDiv(rp, base)))
			totNorm[s] = append(totNorm[s], safeDiv(rq+rp, base))
		}
		t.AddRow(row...)
		xyARIReq, _ := lat(1)
		adaReq, _ := lat(2)
		adaARIReq, _ := lat(4)
		reqDropXY = append(reqDropXY, 1-safeDiv(xyARIReq, baseReq))
		reqDropAda = append(reqDropAda, 1-safeDiv(adaARIReq, adaReq))
	}
	return &Figure{
		ID:    "Fig 13",
		Title: "Average packet latency decomposed into request + reply parts (norm. to XY-Baseline total)",
		Paper: "ARI reduces reply latency and, without touching the request network, request latency too",
		Table: t,
		Summary: map[string]float64{
			"xy_ari_request_latency_drop":  mean(reqDropXY),
			"ada_ari_request_latency_drop": mean(reqDropAda),
			"ada_ari_total_latency_norm":   mean(totNorm[4]),
		},
	}, nil
}
