package core

import (
	"math"

	"repro/internal/noc"
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

// SizeSpeedup performs the eq. (1)/(2) sizing from one finished run of cfg
// against the unlimited-bandwidth reply fabric (cfg.IdealReply set): res is
// the run's Result and ideal its reply fabric, whose per-MC injection
// windows are the eq. (1) measurement.
func SizeSpeedup(cfg Config, res Result, ideal *noc.IdealFabric) Calibration {
	rep, _ := ReplyNetwork(cfg)
	// Peak per-MC rate: the highest 95th-percentile window across MCs.
	var peakPer100 float64
	for _, node := range rep.MCNodes {
		if w := ideal.PeakWindow(node, 95); w > peakPer100 {
			peakPer100 = w
		}
	}
	rate := peakPer100 / 100

	// Reply-mix-weighted average packet length (read replies long, write
	// replies single-flit).
	longPkt := float64(noc.PacketSize(noc.ReadReply, cfg.RepLinkBits, cfg.Core.L1.LineBytes))
	reads := float64(res.Rep.PacketsInjected[noc.ReadReply])
	writes := float64(res.Rep.PacketsInjected[noc.WriteReply])
	avgFlits := longPkt
	if reads+writes > 0 {
		avgFlits = (reads*longPkt + writes) / (reads + writes)
	}

	// Eq. (1) alone (no outputs or VCs to clamp by), then with eq. (2).
	required := ChooseSpeedup(rate, avgFlits, math.MaxInt, math.MaxInt)
	chosen := ChooseSpeedup(rate, avgFlits, NumMeshOutputs, cfg.VCs)
	return Calibration{
		Benchmark:        res.Benchmark,
		PeakRatePerMC:    rate,
		AvgFlitsPerPkt:   avgFlits,
		RequiredS:        required,
		ChosenS:          chosen,
		SatisfiedByBound: chosen == required,
	}
}

// NumMeshOutputs is the non-local output port count of a 2D-mesh router,
// the N_out bound of eq. (2).
const NumMeshOutputs = 4
