// Package power estimates energy for the simulated GPGPU in the spirit of
// the paper's GPUWattch + RTL flow (§6.2, Fig 14): per-event dynamic
// energies charged against simulation activity counts, plus static power
// proportional to runtime. Absolute values are arbitrary model units; the
// paper's Fig 14 is reproduced as relative energy per unit of work, which
// only depends on the ratios.
package power

import (
	"fmt"

	"repro/internal/core"
)

// Params holds the per-event dynamic energies (model units per event) and
// the static power (units per NoC cycle for the whole chip).
type Params struct {
	CoreInstr  float64 // per warp instruction (dominant GPU dynamic term)
	L1Access   float64
	L2Access   float64
	DRAMAccess float64 // per line read/write
	FlitHop    float64 // per flit per router-to-router link traversal
	BufferRW   float64 // per switch traversal (a buffer write+read pair)
	InjFlit    float64 // per flit over an injection link

	// StaticPower is units per NoC cycle for the whole chip. The paper
	// notes current tools model a low static share; ~10-15% of typical
	// total keeps Fig 14's ~4% result reproducible.
	StaticPower float64

	// ARIStaticOverhead scales static power for ARI configs by the area
	// overhead (<1% per §6.1).
	ARIStaticOverhead float64
}

// DefaultParams returns energy ratios calibrated to GPUWattch-era GPU
// breakdowns: core pipelines dominate dynamic energy, DRAM accesses are an
// order of magnitude costlier than cache hits, NoC is a small slice.
func DefaultParams() Params {
	return Params{
		CoreInstr:         10,
		L1Access:          4,
		L2Access:          8,
		DRAMAccess:        80,
		FlitHop:           1.0,
		BufferRW:          0.8,
		InjFlit:           0.5,
		StaticPower:       60,
		ARIStaticOverhead: 0.007,
	}
}

// Breakdown is an energy estimate in model units.
type Breakdown struct {
	Dynamic float64
	Static  float64
}

// Total returns dynamic + static energy.
func (b Breakdown) Total() float64 { return b.Dynamic + b.Static }

// Estimate computes the energy of run r from its event counts; ari applies
// the ARI static overhead factor.
func Estimate(r core.Result, ari bool, p Params) Breakdown {
	a := r.Activity
	var b Breakdown
	b.Dynamic += float64(r.Instructions) * p.CoreInstr
	b.Dynamic += float64(a.L1Accesses) * p.L1Access
	b.Dynamic += float64(a.L2Accesses) * p.L2Access
	b.Dynamic += float64(a.DRAMReads+a.DRAMWrites) * p.DRAMAccess
	b.Dynamic += float64(r.Req.MeshLinkFlits+r.Rep.MeshLinkFlits) * p.FlitHop
	b.Dynamic += float64(r.Req.SwitchTraversals+r.Rep.SwitchTraversals) * p.BufferRW
	b.Dynamic += float64(r.Req.InjLinkFlits+r.Rep.InjLinkFlits) * p.InjFlit

	static := p.StaticPower
	if ari {
		static *= 1 + p.ARIStaticOverhead
	}
	b.Static = static * float64(r.MeasuredCycles)
	return b
}

// PerInstruction normalises a breakdown to energy per warp instruction,
// the equal-work basis Fig 14 compares on (runs simulate fixed cycles, so
// faster schemes complete more work; energy must be compared per unit of
// work, which is how ARI's shorter runtime shows up as static savings).
func PerInstruction(b Breakdown, instructions uint64) (Breakdown, error) {
	if instructions == 0 {
		return Breakdown{}, fmt.Errorf("power: no instructions retired")
	}
	n := float64(instructions)
	return Breakdown{Dynamic: b.Dynamic / n, Static: b.Static / n}, nil
}
