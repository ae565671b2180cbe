package obs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
)

// AttachSimulator registers the standard probe set over sim's layers on reg
// and installs reg.Sample as sim's sampling hook at reg.Interval() cycles:
//
//   - per-class injection/ejection rates and flit counts for both fabrics;
//   - per-VC occupancy, router/NI buffer levels and in-flight packets;
//   - credit-stall cycles, SA grant (switch traversal) and VA grant rates,
//     link-flit counters and NI-full rejections;
//   - the warp-stall breakdown (issue/LSU-send/MSHR/store-queue stalls),
//     instruction and core-cycle counters, and per-interval IPC.
//
// Call Reserve on the registry afterwards (total cycles / interval samples)
// to make steady-state sampling allocation-free. Attaching never alters
// simulated behaviour.
func AttachSimulator(reg *Registry, sim *core.Simulator) {
	attachFabric(reg, "req", sim.RequestNet())
	if rep := sim.ReplyMesh(); rep != nil {
		attachFabric(reg, "rep", rep)
	} else {
		attachBehaviouralFabric(reg, "rep", sim.ReplyNet())
	}
	attachGPU(reg, sim)
	sim.SetSampler(reg.Interval(), reg.Sample)
}

// attachFabric registers the full mesh-network probe set under the label.
func attachFabric(reg *Registry, label string, n *noc.Network) {
	st := n.Stats()
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
	reg.Counter(label+".va_grants", func() float64 { return float64(n.VAGrants()) })
	reg.Counter(label+".mesh_link_flits", func() float64 { return float64(st.MeshLinkFlits) })
	reg.Counter(label+".inj_link_flits", func() float64 { return float64(st.InjLinkFlits) })
	reg.Counter(label+".eject_flits", func() float64 { return float64(st.EjectFlits) })
	reg.Counter(label+".ni_full_rejects", func() float64 { return float64(st.NIFullRejects) })
	reg.Gauge(label+".in_flight", func() float64 { return float64(n.InFlight()) })
	reg.Gauge(label+".router_flits", func() float64 { return float64(n.BufferedFlits()) })
	reg.Gauge(label+".ni_queued_flits", func() float64 { return float64(n.NIQueuedFlits()) })
	for v := 0; v < n.Config().VCs; v++ {
		vc := v
		reg.Gauge(fmt.Sprintf("%s.vc_flits.v%d", label, vc),
			func() float64 { return float64(n.VCOccupancy(vc)) })
	}
	// Recovery-protocol counters, only when the layer is enabled: networks
	// without it keep their historical metric set byte-identical.
	if n.Config().RetransBufPkts > 0 {
		reg.Counter(label+".corrupt_flits", func() float64 { return float64(n.RecoveryStats().CorruptFlits) })
		reg.Counter(label+".corrupt_packets", func() float64 { return float64(n.RecoveryStats().CorruptPackets) })
		reg.Counter(label+".nacks_sent", func() float64 { return float64(n.RecoveryStats().NacksSent) })
		reg.Counter(label+".acks_sent", func() float64 { return float64(n.RecoveryStats().AcksSent) })
		reg.Counter(label+".retrans_packets", func() float64 { return float64(n.RecoveryStats().RetransPackets) })
		reg.Counter(label+".retrans_buf_rejects", func() float64 { return float64(n.RecoveryStats().RetransBufFullRejects) })
		reg.Gauge(label+".dead_links", func() float64 { return float64(n.DeadLinks()) })
		reg.Gauge(label+".ctl_pending", func() float64 { return float64(n.CtlPending()) })
	}
}

// attachBehaviouralFabric registers the reduced probe set available on
// fabrics without per-router state (the ideal fabric, the DA2mesh overlay).
func attachBehaviouralFabric(reg *Registry, label string, f noc.Fabric) {
	st := f.Stats()
	for t := 0; t < noc.NumPacketTypes; t++ {
		typ := noc.PacketType(t)
		reg.Counter(fmt.Sprintf("%s.injected_packets.%s", label, typ),
			func() float64 { return float64(st.PacketsInjected[typ]) })
		reg.Counter(fmt.Sprintf("%s.ejected_packets.%s", label, typ),
			func() float64 { return float64(st.PacketsEjected[typ]) })
		reg.Counter(fmt.Sprintf("%s.injected_flits.%s", label, typ),
			func() float64 { return float64(st.FlitsInjected[typ]) })
	}
	reg.Gauge(label+".in_flight", func() float64 { return float64(f.InFlight()) })
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
// both mesh fabrics of sim and returns them (request first, then reply; the
// reply entry is nil for behavioural reply fabrics, which carry no per-hop
// state to trace).
func AttachTracers(sim *core.Simulator, sampleEvery uint64) (req, rep *Collector) {
	req = NewCollector("req")
	sim.RequestNet().SetTracer(req, sampleEvery)
	if mesh := sim.ReplyMesh(); mesh != nil {
		rep = NewCollector("rep")
		mesh.SetTracer(rep, sampleEvery)
	}
	return req, rep
}
