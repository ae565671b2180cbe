package obs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
)

// AttachSimulator registers the standard probe set over sim's layers on reg
// and installs reg.Sample as sim's sampling hook at reg.Interval() cycles:
//
//   - for both fabrics, per-class injection/ejection rates and flit counts,
//     in-flight packets, credit-stall cycles (always 0: every packet fits
//     its VC; the series stays until NetStats.CreditStallCycles goes), SA
//     grant (switch traversal) rates, link-flit counters and NI-full
//     rejections;
//   - on a mesh fabric also VA grant rates, per-VC occupancy and router/NI
//     buffer levels;
//   - the warp-stall breakdown (issue/LSU-send/MSHR/store-queue stalls),
//     instruction and core-cycle counters, and per-interval IPC.
//
// Call Reserve on the registry afterwards (total cycles / interval samples)
// to make steady-state sampling allocation-free. Attaching never alters
// simulated behaviour.
func AttachSimulator(reg *Registry, sim *core.Simulator) {
	attachFabric(reg, "req", sim.RequestNet())
	attachFabric(reg, "rep", sim.ReplyNet())
	attachGPU(reg, sim)
	sim.SetSampler(reg.Interval(), reg.Sample)
}

// attachFabric registers f's probe set under the label: the NetStats
// counters and the in-flight gauge on every fabric, and the router, VC and
// recovery probes only where routers exist (the mesh).
func attachFabric(reg *Registry, label string, f noc.Fabric) {
	st := f.Stats()
	mesh, _ := f.(*noc.Network)
	for t := 0; t < noc.NumPacketTypes; t++ {
		typ := noc.PacketType(t)
		reg.Counter(fmt.Sprintf("%s.injected_packets.%s", label, typ),
			func() float64 { return float64(st.PacketsInjected[typ]) })
		reg.Counter(fmt.Sprintf("%s.ejected_packets.%s", label, typ),
			func() float64 { return float64(st.PacketsEjected[typ]) })
		reg.Counter(fmt.Sprintf("%s.injected_flits.%s", label, typ),
			func() float64 { return float64(st.FlitsInjected[typ]) })
	}
	reg.Counter(label+".credit_stall_cycles", func() float64 { return float64(st.CreditStallCycles) })
	reg.Counter(label+".sa_grants", func() float64 { return float64(st.SwitchTraversals) })
	if mesh != nil {
		reg.Counter(label+".va_grants", func() float64 { return float64(mesh.VAGrants()) })
	}
	reg.Counter(label+".mesh_link_flits", func() float64 { return float64(st.MeshLinkFlits) })
	reg.Counter(label+".inj_link_flits", func() float64 { return float64(st.InjLinkFlits) })
	reg.Counter(label+".eject_flits", func() float64 { return float64(st.EjectFlits) })
	reg.Counter(label+".ni_full_rejects", func() float64 { return float64(st.NIFullRejects) })
	reg.Gauge(label+".in_flight", func() float64 { return float64(f.InFlight()) })
	if mesh == nil {
		return
	}
	reg.Gauge(label+".router_flits", func() float64 { return float64(mesh.BufferedFlits()) })
	reg.Gauge(label+".ni_queued_flits", func() float64 { return float64(mesh.NIQueuedFlits()) })
	for v := 0; v < mesh.Config().VCs; v++ {
		vc := v
		reg.Gauge(fmt.Sprintf("%s.vc_flits.v%d", label, vc),
			func() float64 { return float64(mesh.VCOccupancy(vc)) })
	}
	// Recovery-protocol counters, only when the layer is enabled: networks
	// without it keep their historical metric set byte-identical.
	if mesh.Config().RetransBufPkts > 0 {
		reg.Counter(label+".corrupt_flits", func() float64 { return float64(mesh.RecoveryStats().CorruptFlits) })
		reg.Counter(label+".corrupt_packets", func() float64 { return float64(mesh.RecoveryStats().CorruptPackets) })
		reg.Counter(label+".nacks_sent", func() float64 { return float64(mesh.RecoveryStats().NacksSent) })
		reg.Counter(label+".acks_sent", func() float64 { return float64(mesh.RecoveryStats().AcksSent) })
		reg.Counter(label+".retrans_packets", func() float64 { return float64(mesh.RecoveryStats().RetransPackets) })
		reg.Counter(label+".retrans_buf_rejects", func() float64 { return float64(mesh.RecoveryStats().RetransBufFullRejects) })
		reg.Gauge(label+".dead_links", func() float64 { return float64(mesh.DeadLinks()) })
		reg.Gauge(label+".ctl_pending", func() float64 { return float64(mesh.CtlPending()) })
	}
}

// attachGPU registers the warp-stall breakdown and IPC over all cores.
func attachGPU(reg *Registry, sim *core.Simulator) {
	cores := sim.Cores()
	sum := func(read func(i int) uint64) func() float64 {
		return func() float64 {
			var total uint64
			for i := range cores {
				total += read(i)
			}
			return float64(total)
		}
	}
	reg.Counter("gpu.instructions", sum(func(i int) uint64 { return cores[i].Instructions }))
	reg.Counter("gpu.mem_instrs", sum(func(i int) uint64 { return cores[i].MemInstrs }))
	reg.Counter("gpu.core_cycles", sum(func(i int) uint64 { return cores[i].CoreCycles }))
	reg.Counter("gpu.issue_stalls", sum(func(i int) uint64 { return cores[i].IssueStalls }))
	reg.Counter("gpu.lsu_send_stalls", sum(func(i int) uint64 { return cores[i].LSUSendStalls }))
	reg.Counter("gpu.mshr_stalls", sum(func(i int) uint64 { return cores[i].MSHRStalls }))
	reg.Counter("gpu.storeq_stalls", sum(func(i int) uint64 { return cores[i].StoreQStalls }))
	// Interval IPC: instructions retired per core cycle within the interval.
	// The closure keeps its own cumulative marks; a warmup-boundary reset
	// (raw values drop) restarts them.
	var lastInstr, lastCyc float64
	reg.Gauge("gpu.ipc", func() float64 {
		var instr, cyc uint64
		for i := range cores {
			instr += cores[i].Instructions
			cyc += cores[i].CoreCycles
		}
		di, dc := float64(instr)-lastInstr, float64(cyc)-lastCyc
		if di < 0 || dc < 0 {
			di, dc = float64(instr), float64(cyc)
		}
		lastInstr, lastCyc = float64(instr), float64(cyc)
		if dc == 0 {
			return 0
		}
		return di / dc
	})
}

// AttachTracers installs collectors sampling every sampleEvery-th packet on
// both fabrics of sim and returns them, request first, then reply. Every
// fabric is traceable; noc.Tracer lists the events each emits.
func AttachTracers(sim *core.Simulator, sampleEvery uint64) (req, rep *Collector) {
	req, rep = NewCollector("req"), NewCollector("rep")
	sim.RequestNet().SetTracer(req, sampleEvery)
	sim.ReplyNet().SetTracer(rep, sampleEvery)
	return req, rep
}
