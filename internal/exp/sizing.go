package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// SpeedupSizing reproduces the §4.2 sizing study: for every benchmark,
// measure the ideal reply injection rate against an unlimited-bandwidth
// fabric and derive the eq. (1) minimal speedup; the paper reports that an
// injection-port speedup of 4 (the eq. (2) bound on a mesh) satisfies 95%
// of the peak rates. Each calibration run obeys the Runner's Checks and
// RunTimeout like any other run.
func SpeedupSizing(r *Runner) (*Figure, error) {
	t := stats.NewTable("benchmark", "peak rate (pkt/cyc/MC)", "avg flits/pkt", "eq.1 S", "chosen S")
	satisfied := 0
	var chosen []float64
	ctx := context.Background()
	for _, k := range r.Benchmarks {
		cfg := r.withScheme(core.AdaBaseline)
		cal, err := core.CalibrateSpeedup(cfg, k, r.checks(ctx))
		if err != nil {
			return nil, r.runError(ctx, k.Name+"/"+cfg.Scheme.String(), err)
		}
		if cal.SatisfiedByBound {
			satisfied++
		}
		chosen = append(chosen, float64(cal.ChosenS))
		t.AddRow(k.Name,
			fmt.Sprintf("%.4f", cal.PeakRatePerMC),
			fmt.Sprintf("%.2f", cal.AvgFlitsPerPkt),
			fmt.Sprintf("%d", cal.RequiredS),
			fmt.Sprintf("%d", cal.ChosenS))
	}
	frac := safeDiv(float64(satisfied), float64(len(r.Benchmarks)))
	return &Figure{
		ID:    "§4.2 sizing",
		Title: "Injection-port speedup sizing from the ideal injection rate (eq. 1/2)",
		Paper: "the S<=4 bound of eq. (2) satisfies ~95% of peak injection rates",
		Table: t,
		Summary: map[string]float64{
			"frac_satisfied_by_bound": frac,
			"mean_chosen_speedup":     mean(chosen),
		},
	}, nil
}
