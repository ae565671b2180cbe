package exp

import (
	"context"
	"repro/internal/core"
	"repro/internal/stats"
)

// EnhancedBaseline quantifies §4.1's methodological choice: the paper
// replaces GPGPU-Sim's default narrow MC->NI link (a packet occupies it
// for its whole serialisation time) with a wide link "to avoid giving
// unfair advantage to our proposed design". This figure measures how much
// of ARI's apparent gain would have come from that enhancement alone.
func EnhancedBaseline(r *Runner) (*Figure, error) {
	at := func(s core.Scheme, unenhanced bool) func(*core.Config) {
		return func(c *core.Config) { c.Scheme, c.UnenhancedBaseline = s, unenhanced }
	}
	points := []Point{
		{"Default-Base", at(core.AdaBaseline, true)},
		{"Enhanced-Base", at(core.AdaBaseline, false)},
		// Consumption acceleration grafted onto the narrow MC->NI link:
		// the supply path caps at one packet per serialisation time, so
		// ARI's machinery has nothing to forward.
		{"Narrow+Speedup", at(core.AccConsume, true)},
		{"Ada-ARI", at(core.AdaARI, false)},
	}
	res, err := r.Grid(context.Background(), r.Benchmarks, points)
	if err != nil {
		return nil, err
	}
	t, _, gm := normalised(r.Benchmarks, points, res, ipcOf, "geomean", stats.GeoMean)
	return &Figure{
		ID:    "enhanced",
		Title: "§4.1 ablation: default vs enhanced baseline vs ARI (IPC norm. to the default baseline)",
		Paper: "the paper evaluates against the enhanced baseline so ARI's gain excludes the easy wide-link fix",
		Table: t,
		Summary: map[string]float64{
			"enhancement_alone_gain":   gm[1] - 1,
			"narrow_plus_speedup_gain": gm[2] - 1,
			"ari_over_enhanced":        gm[3]/gm[1] - 1,
		},
	}, nil
}
