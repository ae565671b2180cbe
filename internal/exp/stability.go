package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
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
		label, bench  string
		seeds         int
		base, variant func(*core.Config)
		key           string // summary prefix of a row reported on its own
	}{
		{"Ada-ARI over Ada-Baseline", "bfs", 3, adaBase, ari, ""}, // high, medium, low
		{"Ada-ARI over Ada-Baseline", "histogram", 3, adaBase, ari, ""},
		{"Ada-ARI over Ada-Baseline", "matrixMul", 3, adaBase, ari, ""},
		{"2 priority levels over 1 (Fig 9)", "bfs", 10,
			func(c *core.Config) { ari(c); c.PriorityLevels = 1 },
			func(c *core.Config) { ari(c); c.PriorityLevels = 2 }, "fig9_bfs_gain"},
	}
	var jobs []Job
	for _, row := range rows {
		k, err := trace.ByName(row.bench)
		if err != nil {
			return nil, err
		}
		for seed := 1; seed <= row.seeds; seed++ {
			for _, edit := range []func(*core.Config){row.base, row.variant} {
				cfg := r.Base
				cfg.Seed = uint64(seed)
				edit(&cfg)
				jobs = append(jobs, Job{Cfg: cfg, Kernel: k})
			}
		}
	}
	res, err := r.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("comparison", "benchmark", "seeds", "mean", "min", "max", "spread")
	summary := map[string]float64{}
	for _, row := range rows {
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for s := 0; s < row.seeds; s++ {
			gain := safeDiv(res[2*s+1].IPC, res[2*s].IPC) - 1
			lo, hi, sum = math.Min(lo, gain), math.Max(hi, gain), sum+gain
		}
		res = res[2*row.seeds:]
		mean := sum / float64(row.seeds)
		t.AddRow(row.label, row.bench, fmt.Sprint(row.seeds), pct(mean), pct(lo), pct(hi), fmt.Sprintf("%.1fpp", (hi-lo)*100))
		if row.key != "" {
			summary[row.key+"_mean"], summary[row.key+"_min"], summary[row.key+"_max"] = mean, lo, hi
		} else {
			summary["max_gain_spread"] = math.Max(summary["max_gain_spread"], hi-lo)
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
