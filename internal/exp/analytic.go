package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/stats"
)

// AnalyticComparison runs the analytical estimator (internal/analytic)
// against the cycle-accurate simulator over the benchmark suite and the
// validation schemes, one row per (benchmark, scheme) point — the
// estimator-vs-simulator figure behind `ariexp -fig analytic`, and the
// human-readable face of the validate-analytic drift oracle.
func AnalyticComparison(r *Runner) (*Figure, error) {
	schemes := analytic.ValidationSchemes()
	res, err := r.Grid(context.Background(), r.Benchmarks, SchemePoints(schemes...))
	if err != nil {
		return nil, err
	}
	bands, err := analytic.Compare(r.Base, r.Benchmarks, schemes, res)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("benchmark", "scheme",
		"sim rep lat", "est rep lat", "rep err",
		"sim IPC", "est IPC", "IPC err")
	var sumRep, sumIPC, maxRep, maxIPC float64
	for _, b := range bands {
		t.AddRow(b.Bench, b.Scheme,
			fmt.Sprintf("%.1f", b.SimRepLatency), fmt.Sprintf("%.1f", b.EstRepLatency), pct(b.RepErr),
			fmt.Sprintf("%.3f", b.SimIPC), fmt.Sprintf("%.3f", b.EstIPC), pct(b.IPCErr))
		sumRep += math.Abs(b.RepErr)
		sumIPC += math.Abs(b.IPCErr)
		maxRep = math.Max(maxRep, math.Abs(b.RepErr))
		maxIPC = math.Max(maxIPC, math.Abs(b.IPCErr))
	}
	n := float64(len(bands))
	return &Figure{
		ID:    "analytic",
		Title: "Extension: analytical estimator vs cycle-accurate simulator",
		Paper: "(beyond the paper) M/G/1-style model in the style of Mandal et al.; errors are recorded as the drift-oracle bands",
		Table: t,
		Summary: map[string]float64{
			"mean_abs_rep_latency_err": safeDiv(sumRep, n),
			"max_abs_rep_latency_err":  maxRep,
			"mean_abs_ipc_err":         safeDiv(sumIPC, n),
			"max_abs_ipc_err":          maxIPC,
		},
		Notes: []string{
			"the model answers in microseconds per point; the drift oracle (make validate-analytic) fails when these errors move outside internal/analytic/testdata/error_bands.json",
		},
	}, nil
}
