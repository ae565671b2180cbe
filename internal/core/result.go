package core

import (
	"repro/internal/noc"
)

// Activity holds the cache and DRAM counts the power model (internal/power)
// charges energy for; it reads its other counts from Result's own fields.
type Activity struct {
	L1Accesses uint64
	L2Accesses uint64
	DRAMReads  uint64
	DRAMWrites uint64
}

// Result is the outcome of one simulation run.
type Result struct {
	Benchmark string
	Scheme    Scheme

	// Performance.
	MeasuredCycles int64
	CoreCycles     uint64
	Instructions   uint64
	IPC            float64 // aggregate warp-instructions per core cycle

	// Truncated reports that a fixed-work run (RunWorkChecked) hit
	// its maxCycles guard before retiring the requested instructions, so
	// MeasuredCycles understates the true execution time.
	Truncated bool

	// FaultEvents counts injected NoC faults, request and reply side (0
	// when Config.Fault starts none).
	FaultEvents int

	// Networks (copies of the per-fabric stats).
	Req noc.NetStats
	Rep noc.NetStats

	// Recovery sums the fault-recovery protocol counters over both networks
	// (zero when recovery is off). NacksSent == CorruptPackets always (every
	// detected drop is NACKed on the spot); RetransPackets may trail
	// CorruptPackets by the recoveries still in flight when the fixed
	// measurement horizon ended the run.
	Recovery noc.RecoveryStats

	// Memory-side.
	MCStallTime     int64 // summed reply-data stall cycles (Fig 12)
	MCBlockedCycles int64
	RepliesSent     uint64
	L1HitRate       float64
	L2HitRate       float64
	DRAMRowHitRate  float64

	// Reply NI occupancy (Fig 6), in flits; capacity for normalisation.
	NIOccAvgFlits   float64
	NIQueueCapFlits int

	Activity Activity
}

// collect gathers the result after the measurement window.
func (s *Simulator) collect() Result {
	s.settle()
	r := Result{
		Benchmark:      s.kernel.Name,
		Scheme:         s.cfg.Scheme,
		MeasuredCycles: s.measuredCycles,
		CoreCycles:     s.coreCyclesMeasured,
	}

	var l1Acc, l1Hit uint64
	for _, c := range s.cores {
		r.Instructions += c.Instructions
		l1Acc += c.L1().Accesses
		l1Hit += c.L1().Hits
	}
	if s.coreCyclesMeasured > 0 {
		// Aggregate IPC: warp instructions per core-clock cycle summed over
		// cores (each core ticks once per core cycle).
		r.IPC = float64(r.Instructions) / float64(s.coreCyclesMeasured)
	}
	if l1Acc > 0 {
		r.L1HitRate = float64(l1Hit) / float64(l1Acc)
	}

	var l2Acc, l2Hit, rowHit, rowTot, dr, dw uint64
	for _, mc := range s.mcs {
		r.MCStallTime += mc.StallTime
		r.MCBlockedCycles += mc.BlockedCycle
		r.RepliesSent += mc.RepliesSent
		l2 := mc.L2()
		l2Acc += l2.Accesses
		l2Hit += l2.Hits
		d := mc.DRAM()
		rowHit += d.RowHits
		rowTot += d.RowHits + d.RowMisses
		dr += d.Reads
		dw += d.Writes
	}
	if l2Acc > 0 {
		r.L2HitRate = float64(l2Hit) / float64(l2Acc)
	}
	if rowTot > 0 {
		r.DRAMRowHitRate = float64(rowHit) / float64(rowTot)
	}

	r.Req = *s.reqNet.Stats()
	r.Rep = *s.repNet.Stats()
	r.Recovery = s.RecoveryStats()

	r.FaultEvents = s.reqNet.FaultEvents()

	r.NIOccAvgFlits = s.repNet.NIOccupancyAvgFlits()
	if mesh, ok := s.repNet.(*noc.Network); ok {
		r.FaultEvents += mesh.FaultEvents()
		// The NI capacity is the mesh's own.
		r.NIQueueCapFlits = mesh.NIQueueCapacityFlits(s.mcNodes[0])
	}

	r.Activity = Activity{L1Accesses: l1Acc, L2Accesses: l2Acc, DRAMReads: dr, DRAMWrites: dw}
	return r
}
