package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// PlacementAblation is an extension study beyond the paper: it quantifies
// how the MC placement interacts with ARI's prioritisation (§5). Where
// MC-routers carry other MCs' through replies (edge clustering creates
// shared perimeter corridors; diamond spreads them), prioritising local
// injection redistributes service between the two — so the priority gain
// is a placement-sensitive quantity, not a constant of the scheme. During
// development this sensitivity was strong enough to flip the gain's sign
// under a backpressure-heavy configuration; the table quantifies it under
// the calibrated Table I system.
func PlacementAblation(r *Runner) (*Figure, error) {
	benches := []string{"bfs", "kmeans", "mummerGPU", "pathfinder"}
	at := func(edge bool, s core.Scheme) func(*core.Config) {
		return func(c *core.Config) { c.Scheme, c.EdgeMCPlacement = s, edge }
	}
	points := []Point{
		{"diamond/no-pri", at(false, core.AccBothNoPriority)},
		{"diamond/ARI", at(false, core.AdaARI)},
		{"edge/no-pri", at(true, core.AccBothNoPriority)},
		{"edge/ARI", at(true, core.AdaARI)},
	}
	kernels, err := kernelsNamed(benches...)
	if err != nil {
		return nil, err
	}
	res, err := r.Grid(kernels, points)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("benchmark", "diamond prio gain", "edge prio gain")
	var dGains, eGains []float64
	for bi, name := range benches {
		d := safeDiv(res[bi][1].IPC, res[bi][0].IPC) - 1
		e := safeDiv(res[bi][3].IPC, res[bi][2].IPC) - 1
		dGains = append(dGains, d)
		eGains = append(eGains, e)
		t.AddRow(name, pct(d), pct(e))
	}
	return &Figure{
		ID:    "placement",
		Title: "Extension: priority gain (ARI vs Acc-Both-NoPriority) under diamond vs edge MC placement",
		Paper: "(beyond the paper) the §5 priority gain depends on how much cross-MC through traffic the MC-routers carry, i.e. on MC placement",
		Table: t,
		Summary: map[string]float64{
			"diamond_priority_gain": mean(dGains),
			"edge_priority_gain":    mean(eGains),
		},
		Notes: []string{fmt.Sprintf("benchmarks: %v; priority levels = %d", benches, r.Base.PriorityLevels)},
	}, nil
}
