package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// SeedStability quantifies run-to-run variation of the gains the figures
// report from one seed: each comparison is measured under several seeds
// (fresh warp address streams each time). The Ada-ARI gain over Ada-Baseline
// is taken on one benchmark per sensitivity class — small spreads justify
// the single-seed figures. Fig 9's bfs gain of two priority levels over one
// is a few percent of a noisy benchmark, so it is taken over ten seeds and
// read as a mean and a range, not as one seed's sign.
func SeedStability(r *Runner) (*Figure, error) {
	adaBase := func(c *core.Config) { c.Scheme = core.AdaBaseline }
	ari := func(c *core.Config) { c.Scheme = core.AdaARI }
	rows := []struct {
		label         string
		benches       []string
		seeds         int
		base, variant func(*core.Config)
		key           string // summary prefix of a row reported on its own
	}{
		{"Ada-ARI over Ada-Baseline", []string{"bfs", "histogram", "matrixMul"}, 3, adaBase, ari, ""}, // high, medium, low
		{"2 priority levels over 1 (Fig 9)", []string{"bfs"}, 10,
			func(c *core.Config) { ari(c); c.PriorityLevels = 1 },
			func(c *core.Config) { ari(c); c.PriorityLevels = 2 }, "fig9_bfs_gain"},
	}
	t := stats.NewTable("comparison", "benchmark", "seeds", "mean", "min", "max", "spread")
	summary := map[string]float64{}
	for _, row := range rows {
		kernels, err := kernelsNamed(row.benches...)
		if err != nil {
			return nil, err
		}
		// Points 2s and 2s+1 are the base and the variant under seed s+1.
		var points []Point
		for seed := 1; seed <= row.seeds; seed++ {
			for _, pt := range []Point{{"base", row.base}, {"variant", row.variant}} {
				points = append(points, Point{fmt.Sprintf("%s, seed %d", pt.Label, seed), func(c *core.Config) {
					c.Seed = uint64(seed)
					pt.Edit(c)
				}})
			}
		}
		res, err := r.Grid(kernels, points)
		if err != nil {
			return nil, err
		}
		for k, kernel := range kernels {
			lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
			for s := 0; s < row.seeds; s++ {
				gain := safeDiv(res[k][2*s+1].IPC, res[k][2*s].IPC) - 1
				lo, hi, sum = math.Min(lo, gain), math.Max(hi, gain), sum+gain
			}
			mean := sum / float64(row.seeds)
			t.AddRow(row.label, kernel.Name, fmt.Sprint(row.seeds), pct(mean), pct(lo), pct(hi), fmt.Sprintf("%.1fpp", (hi-lo)*100))
			if row.key != "" {
				summary[row.key+"_mean"], summary[row.key+"_min"], summary[row.key+"_max"] = mean, lo, hi
			} else {
				summary["max_gain_spread"] = math.Max(summary["max_gain_spread"], hi-lo)
			}
		}
	}
	return &Figure{
		ID:      "stability",
		Title:   "Extension: seed-to-seed stability of the reported gains",
		Paper:   "(beyond the paper) validates single-seed reporting; settles Fig 9's bfs sign",
		Table:   t,
		Summary: summary,
	}, nil
}
