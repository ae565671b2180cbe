package core

import (
	"repro/internal/noc"
)

// Activity captures the event counts the power model (internal/power)
// charges energy for.
type Activity struct {
	NoCCycles      int64
	CoreCycles     uint64
	Instructions   uint64
	L1Accesses     uint64
	L2Accesses     uint64
	DRAMReads      uint64
	DRAMWrites     uint64
	ReqFlitHops    uint64
	RepFlitHops    uint64
	BufferedFlits  uint64 // buffer write+read pairs ~ switch traversals
	InjectionFlits uint64
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

	// FaultEvents counts injected NoC faults when fault injection was
	// enabled (request + reply side). Counted by the injectors' totals, so
	// the figure is exact even when the retained event log hits the
	// fault.Config.MaxEvents cap.
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
	NIOccAvgFlits     float64
	NIQueueCapFlits   int
	ReplyInjPeakWin95 float64 // 95th pct packets per 100-cycle window (eq. 1)

	Activity Activity
}

// collect gathers the result after the measurement window.
func (s *Simulator) collect() Result {
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

	if s.reqFault != nil {
		r.FaultEvents += int(s.reqFault.TotalEvents())
	}
	if s.repFault != nil {
		r.FaultEvents += int(s.repFault.TotalEvents())
	}

	r.NIOccAvgFlits = s.repNet.NIOccupancyAvgFlits()
	if mesh, ok := s.repNet.(*noc.Network); ok {
		// NI capacity and the eq. (1) injection windows are the mesh's own.
		r.NIQueueCapFlits = mesh.NIQueueCapacityFlits(s.mcNodes[0])
		r.ReplyInjPeakWin95 = mesh.PeakInjWindow(95)
	}

	r.Activity = Activity{
		NoCCycles:      s.measuredCycles,
		CoreCycles:     s.coreCyclesMeasured,
		Instructions:   r.Instructions,
		L1Accesses:     l1Acc,
		L2Accesses:     l2Acc,
		DRAMReads:      dr,
		DRAMWrites:     dw,
		ReqFlitHops:    r.Req.MeshLinkFlits,
		RepFlitHops:    r.Rep.MeshLinkFlits,
		BufferedFlits:  r.Req.SwitchTraversals + r.Rep.SwitchTraversals,
		InjectionFlits: r.Req.InjLinkFlits + r.Rep.InjLinkFlits,
	}
	return r
}

// LongPacketFlits returns the reply-network long-packet size in flits.
func (s *Simulator) LongPacketFlits() int {
	return noc.PacketSize(noc.ReadReply, s.cfg.RepLinkBits, s.cfg.DataBytes)
}
