package analytic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/trace"
)

// Band is the estimator-vs-simulator comparison for one (benchmark,
// scheme) point: both sides' headline numbers and the signed relative
// errors, one row of `ariexp -fig analytic`.
type Band struct {
	Bench  string
	Scheme string

	SimRepLatency float64
	EstRepLatency float64
	// RepErr is (est-sim)/sim for the mean reply-packet latency.
	RepErr float64

	SimIPC float64
	EstIPC float64
	// IPCErr is (est-sim)/sim for aggregate IPC.
	IPCErr float64
}

// ValidationSchemes are the scheme axes the comparison covers: the enhanced
// baseline, the full ARI design and the MultiPort competitor — one per NI
// architecture the model distinguishes.
func ValidationSchemes() []core.Scheme {
	return []core.Scheme{core.XYBaseline, core.AdaARI, core.AdaMultiPort}
}

// Compare sets the estimator against simulated results over kernels x
// schemes: res[k][s] is kernels[k] simulated under cfg with schemes[s] (the
// shape exp.Runner.Grid returns). It runs nothing and returns one Band per
// point, in (kernel, scheme) order.
func Compare(cfg core.Config, kernels []trace.Kernel, schemes []core.Scheme, res [][]core.Result) ([]Band, error) {
	if len(res) != len(kernels) {
		return nil, fmt.Errorf("analytic: %d result rows for %d kernels", len(res), len(kernels))
	}
	bands := make([]Band, 0, len(kernels)*len(schemes))
	for ki, k := range kernels {
		if len(res[ki]) != len(schemes) {
			return nil, fmt.Errorf("analytic: %s: %d results for %d schemes", k.Name, len(res[ki]), len(schemes))
		}
		for si, s := range schemes {
			c := cfg
			c.Scheme = s
			m, err := NewModel(c)
			if err != nil {
				return nil, err
			}
			est := m.Estimate(k)
			sim := res[ki][si]
			simRep := sim.Rep.AvgLatency(noc.ReadReply, noc.WriteReply)
			b := Band{
				Bench:         k.Name,
				Scheme:        s.String(),
				SimRepLatency: simRep,
				EstRepLatency: est.RepLatency,
				SimIPC:        sim.IPC,
				EstIPC:        est.IPC,
			}
			b.RepErr = relErr(est.RepLatency, simRep)
			b.IPCErr = relErr(est.IPC, sim.IPC)
			bands = append(bands, b)
		}
	}
	return bands, nil
}

// relErr returns the signed relative error of est against sim.
func relErr(est, sim float64) float64 {
	if sim == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (est - sim) / sim
}
