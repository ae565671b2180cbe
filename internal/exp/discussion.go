package exp

import (
	"context"
	"fmt"

	"repro/internal/area"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/stats"
)

// Fig14 compares energy per unit of work between the adaptive baseline and
// ARI (paper: dynamic ~equal, static shrinks with runtime, ~4% total
// saving under the tools' low static share).
func Fig14(r *Runner) (*Figure, error) {
	res, err := r.Grid(context.Background(), r.Benchmarks, SchemePoints(core.AdaBaseline, core.AdaARI))
	if err != nil {
		return nil, err
	}
	params := power.DefaultParams()
	perInstr := func(res core.Result, ari bool) (power.Breakdown, error) {
		return power.PerInstruction(power.Estimate(res.Activity, ari, params), res.Instructions)
	}
	t := stats.NewTable("benchmark", "baseline", "ARI", "ARI_dynamic", "ARI_static")
	var totals []float64
	for i, k := range r.Benchmarks {
		eb, err := perInstr(res[i][0], false)
		if err != nil {
			return nil, err
		}
		ea, err := perInstr(res[i][1], true)
		if err != nil {
			return nil, err
		}
		norm := safeDiv(ea.Total(), eb.Total())
		totals = append(totals, norm)
		t.AddRow(k.Name, "1.000",
			fmt.Sprintf("%.3f", norm),
			fmt.Sprintf("%.3f", safeDiv(ea.Dynamic, eb.Total())),
			fmt.Sprintf("%.3f", safeDiv(ea.Static, eb.Total())))
	}
	avg := mean(totals)
	return &Figure{
		ID:      "Fig 14",
		Title:   "Energy per unit work, ARI vs baseline (normalised)",
		Paper:   "dynamic energy ~unchanged; static reduced by shorter runtime; total ~-4%",
		Table:   t,
		Summary: map[string]float64{"avg_energy_norm": avg, "avg_energy_saving": 1 - avg},
	}, nil
}

// Fig15 studies VC-count interaction (paper: ARI wins at equal VC count,
// and grows more from 2->4 VCs than the baseline because the removed
// injection bottleneck lets the extra VCs fill).
func Fig15(r *Runner) (*Figure, error) {
	// The injection speedup matches the VC count (§7.5(3); see the vcs axis).
	vcs := axis("vcs")
	points := []Point{
		scheme("2VC-Baseline", core.AdaBaseline, vcs.Point(2)),
		scheme("4VC-Baseline", core.AdaBaseline, vcs.Point(4)),
		scheme("2VC-ARI", core.AdaARI, vcs.Point(2)),
		scheme("4VC-ARI", core.AdaARI, vcs.Point(4)),
	}
	kernels, err := kernelsNamed("bfs", "b+tree", "hotspot", "pathfinder")
	if err != nil {
		return nil, err
	}
	res, err := r.Grid(context.Background(), kernels, points)
	if err != nil {
		return nil, err
	}
	t, norm, _ := normalised(kernels, points, res, ipcOf, "", nil)
	var baseScaling, ariScaling []float64
	for k := range kernels {
		baseScaling = append(baseScaling, safeDiv(norm[1][k], norm[0][k]))
		ariScaling = append(ariScaling, safeDiv(norm[3][k], norm[2][k]))
	}
	return &Figure{
		ID:    "Fig 15",
		Title: "ARI with different VC counts (IPC norm. to 2VC-Baseline)",
		Paper: "ARI > baseline at same VCs; 2->4 VC gain much larger with ARI",
		Table: t,
		Summary: map[string]float64{
			"baseline_vc_scaling": mean(baseScaling) - 1,
			"ari_vc_scaling":      mean(ariScaling) - 1,
		},
	}, nil
}

// Fig16 applies ARI on top of the DA2mesh overlay (paper: +16.4% IPC over
// DA2mesh alone — the overlay does not address reply injection).
func Fig16(r *Runner) (*Figure, error) {
	points := SchemePoints(core.DA2MeshBase, core.DA2MeshARI)
	res, err := r.Grid(context.Background(), r.Benchmarks, points)
	if err != nil {
		return nil, err
	}
	t, _, gm := normalised(r.Benchmarks, points, res, ipcOf, "geomean", stats.GeoMean)
	return &Figure{
		ID:      "Fig 16",
		Title:   "ARI on top of DA2mesh (IPC norm. to DA2mesh)",
		Paper:   "ARI adds ~16.4% on top of DA2mesh",
		Table:   t,
		Summary: map[string]float64{"da2mesh_ari_gain": gm[1] - 1},
	}, nil
}

// Scalability evaluates Ada-ARI vs Ada-Baseline on 4x4, 6x6 and 8x8 meshes
// (paper: IPC improvement grows 3.7% -> 15.4% -> 24.7%).
func Scalability(r *Runner) (*Figure, error) {
	// MC count stays 8 across sizes (see the mesh axis): CC:MC 8:8, 28:8, 56:8.
	mesh := axis("mesh")
	// A class-balanced subset keeps the study tractable on one machine.
	kernels, err := kernelsNamed("bfs", "mummerGPU", "pathfinder", "hotspot",
		"b+tree", "backprop", "histogram", "scan",
		"blackScholes", "matrixMul", "nn", "monteCarlo")
	if err != nil {
		return nil, err
	}
	// Two points per size: Ada-Baseline, then Ada-ARI.
	var points []Point
	for _, v := range mesh.Values {
		p := mesh.Point(v)
		for _, sch := range []core.Scheme{core.AdaBaseline, core.AdaARI} {
			points = append(points, scheme(p.Label+"/"+sch.String(), sch, p))
		}
	}
	res, err := r.Grid(context.Background(), kernels, points)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("mesh", "ARI IPC gain (geomean)")
	summary := map[string]float64{}
	gains := make([][]float64, len(mesh.Values))
	for _, row := range res {
		for si := range gains {
			gains[si] = append(gains[si], safeDiv(row[2*si+1].IPC, row[2*si].IPC))
		}
	}
	for si, v := range mesh.Values {
		label, g := mesh.Point(v).Label, stats.GeoMean(gains[si])-1
		t.AddRow(label, pct(g))
		summary["gain_"+label] = g
	}
	return &Figure{
		ID:      "§7.5 scalability",
		Title:   "Ada-ARI IPC improvement vs mesh size",
		Paper:   "3.7% (4x4), 15.4% (6x6), 24.7% (8x8)",
		Table:   t,
		Summary: summary,
	}, nil
}

// AreaOverhead reproduces §6.1's RTL-derived overheads from the analytical
// area model.
func AreaOverhead(r *Runner) (*Figure, error) {
	cfg := r.Base
	mesh := noc.Mesh{Width: cfg.MeshWidth, Height: cfg.MeshHeight}
	longPkt := noc.PacketSize(noc.ReadReply, cfg.RepLinkBits, cfg.Core.L1.LineBytes)
	speedup := cfg.InjSpeedup
	if speedup <= 0 {
		speedup = 4
	}
	o, err := area.Evaluate(mesh.Nodes(), cfg.NumMC, cfg.VCs, longPkt,
		cfg.RepLinkBits, 4*longPkt, speedup, area.DefaultParams())
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("quantity", "value")
	t.AddRow("baseline NI + MC-router area", fmt.Sprintf("%.0f units", o.BaselinePair))
	t.AddRow("ARI NI + MC-router area", fmt.Sprintf("%.0f units", o.ARIPair))
	t.AddRow("pair overhead", fmt.Sprintf("%.2f%%", o.PairOverhead*100))
	t.AddRow("amortised over whole NoC", fmt.Sprintf("%.3f%%", o.AmortisedOverhead*100))
	return &Figure{
		ID:    "§6.1 area",
		Title: "ARI area overhead (analytical model standing in for RTL synthesis)",
		Paper: "revised NI + MC-router pair +5.4%; amortised ~0.7% (<1%)",
		Table: t,
		Summary: map[string]float64{
			"pair_overhead":      o.PairOverhead,
			"amortised_overhead": o.AmortisedOverhead,
		},
	}, nil
}
