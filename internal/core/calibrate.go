package core

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/trace"
)

// Calibration is the outcome of the paper's §4.2 speedup-sizing procedure
// for one benchmark: run the system against an unlimited-bandwidth reply
// fabric, measure the ideal packet injection rate at the MCs (95th
// percentile of per-100-cycle windows), and apply eq. (1) and eq. (2).
type Calibration struct {
	Benchmark string
	// PeakRatePerMC is the 95th-percentile ideal injection rate of the
	// busiest measurement, in reply packets per cycle per MC.
	PeakRatePerMC float64
	// AvgFlitsPerPkt is N̄_flits_per_pkt of eq. (1): the reply-mix-weighted
	// average reply packet length.
	AvgFlitsPerPkt float64
	// RequiredS is the minimal integer satisfying eq. (1).
	RequiredS int
	// ChosenS is RequiredS clamped by eq. (2) (min of non-local outputs
	// and VCs).
	ChosenS int
	// SatisfiedByBound reports whether the eq. (2) bound already covers
	// the requirement (the paper observes this for 95% of peak windows).
	SatisfiedByBound bool
}

// CalibrateSpeedup performs the eq. (1)/(2) sizing for kernel k under cfg.
// The ideal-fabric run goes through RunChecked under opt, so a stuck or
// interrupted calibration fails like any other run.
func CalibrateSpeedup(cfg Config, k trace.Kernel, opt CheckOptions) (Calibration, error) {
	cfg.IdealReply = true
	sim, err := NewSimulator(cfg, k)
	if err != nil {
		return Calibration{}, err
	}
	defer sim.Close()
	res, err := sim.RunChecked(opt)
	if err != nil {
		return Calibration{}, err
	}

	ideal, ok := sim.ReplyNet().(*noc.IdealFabric)
	if !ok {
		return Calibration{}, fmt.Errorf("core: calibration simulator lacks ideal fabric")
	}

	// Peak per-MC rate: the highest 95th-percentile window across MCs.
	var peakPer100 float64
	for _, node := range sim.MCNodes() {
		if w := ideal.PeakWindow(node, 95); w > peakPer100 {
			peakPer100 = w
		}
	}
	rate := peakPer100 / 100

	// Reply-mix-weighted average packet length (read replies long, write
	// replies single-flit).
	longPkt := float64(sim.LongPacketFlits())
	reads := float64(res.Rep.PacketsInjected[noc.ReadReply])
	writes := float64(res.Rep.PacketsInjected[noc.WriteReply])
	avgFlits := longPkt
	if reads+writes > 0 {
		avgFlits = (reads*longPkt + writes) / (reads + writes)
	}

	// Eq. (1) minimal S, before the eq. (2) clamp.
	need := rate * avgFlits
	required := int(need)
	if float64(required) < need {
		required++
	}
	if required < 1 {
		required = 1
	}
	bound := NumMeshOutputs
	if cfg.VCs < bound {
		bound = cfg.VCs
	}
	chosen := required
	if chosen > bound {
		chosen = bound
	}
	return Calibration{
		Benchmark:        k.Name,
		PeakRatePerMC:    rate,
		AvgFlitsPerPkt:   avgFlits,
		RequiredS:        required,
		ChosenS:          chosen,
		SatisfiedByBound: required <= bound,
	}, nil
}

// NumMeshOutputs is the non-local output port count of a 2D-mesh router,
// the N_out bound of eq. (2).
const NumMeshOutputs = 4
