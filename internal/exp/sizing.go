package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/stats"
)

// SpeedupSizing reproduces the §4.2 sizing study: for every benchmark,
// measure the ideal reply injection rate against an unlimited-bandwidth
// fabric and derive the eq. (1) minimal speedup; the paper reports that an
// injection-port speedup of 4 (the eq. (2) bound on a mesh) satisfies 95%
// of the peak rates. The ideal-fabric runs are one Runner dispatch, each job
// observed to keep its run's fabric.
func SpeedupSizing(r *Runner) (*Figure, error) {
	return speedupSizing(context.Background(), r)
}

// speedupSizing is SpeedupSizing under ctx.
func speedupSizing(ctx context.Context, r *Runner) (*Figure, error) {
	cfg := r.withScheme(core.AdaBaseline)
	cfg.IdealReply = true
	jobs := make([]Job, len(r.Benchmarks))
	ideal := make([]*noc.IdealFabric, len(jobs))
	for i, k := range r.Benchmarks {
		jobs[i] = Job{Cfg: cfg, Kernel: k, Observe: func(sim *core.Simulator) {
			ideal[i] = sim.ReplyNet().(*noc.IdealFabric)
		}}
	}
	res, err := r.RunAllContext(ctx, jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("benchmark", "peak rate (pkt/cyc/MC)", "avg flits/pkt", "eq.1 S", "chosen S")
	satisfied := 0
	var chosen []float64
	for i, k := range r.Benchmarks {
		cal := core.SizeSpeedup(cfg, res[i], ideal[i])
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
