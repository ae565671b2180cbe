package noc

import "fmt"

// Fault hooks: the attachment points internal/fault drives. The stall kinds
// (StallLink, FreezeInputPort, StallNISupply) are pure service stalls — they
// suppress arbitration or supply for a bounded window but never touch
// buffers, credits or ownership, so credit-based flow control absorbs them
// with zero flit loss and CheckInvariants stays clean at every fault
// boundary. Overlapping faults on the same component extend to the furthest
// horizon. CorruptLink and KillLink are the data-fault kinds behind the
// recovery protocol layer (recovery.go): corruption damages flit payloads
// in transit, and a dead link is permanently excluded from routing.

// StallLink stalls output port `port` of node's router until cycle `until`:
// switch allocation never grants the output while stalled, so no flit
// traverses the link (a transient link failure). Ports 0..NumDirections-1
// are the mesh links; port NumDirections is the local ejection link.
func (n *Network) StallLink(node, port int, until int64) {
	if port < 0 || port >= numOutPorts {
		panic(fmt.Sprintf("noc: StallLink port %d out of range [0,%d)", port, numOutPorts))
	}
	n.faulted = true
	op := &n.routers[node].out[port]
	if until > op.stalledUntil {
		op.stalledUntil = until
	}
}

// FreezeInputPort freezes input port `port` of node's router until cycle
// `until`: none of its VCs may bid for the switch while frozen, so buffered
// flits sit still and upstream credits stop returning (an input-port
// failure). Ports 0..NumDirections-1 are the mesh inputs; higher indices are
// the injection ports.
func (n *Network) FreezeInputPort(node, port int, until int64) {
	r := &n.routers[node]
	if port < 0 || port >= len(r.in) {
		panic(fmt.Sprintf("noc: FreezeInputPort port %d out of range [0,%d)", port, len(r.in)))
	}
	n.faulted = true
	ip := &r.in[port]
	if until > ip.frozenUntil {
		ip.frozenUntil = until
	}
}

// StallNISupply stalls node's NI until cycle `until`: it supplies no flits
// to the router, so its queues back up and Offer rejections propagate the
// backpressure burst to the node logic (MC data stalls, core send stalls).
func (n *Network) StallNISupply(node int, until int64) {
	n.faulted = true
	ni := &n.nis[node]
	if until > ni.stalledUntil {
		ni.stalledUntil = until
	}
}

// CorruptLink opens a corruption window on output port `port` of node's
// router until cycle `until`: every flit traversing the link while the
// window is open has its payload marked corrupted (flitBad). Routing and
// flow control are untouched — the damage is only observable to the
// receiving NI's CRC check, which drops and NACKs the packet when recovery
// is enabled (Config.RetransBufPkts > 0) and delivers it silently wrong
// otherwise. Ports 0..NumDirections-1 are the mesh links; port
// NumDirections is the local ejection link.
func (n *Network) CorruptLink(node, port int, until int64) {
	if port < 0 || port >= numOutPorts {
		panic(fmt.Sprintf("noc: CorruptLink port %d out of range [0,%d)", port, numOutPorts))
	}
	n.faulted = true
	op := &n.routers[node].out[port]
	if until > op.corruptUntil {
		op.corruptUntil = until
	}
}

// KillLink permanently removes the mesh link on output port `port` of
// node's router. The whole network then switches to the fault-adaptive
// up*/down* routing table (ftable.go): waiting packets everywhere re-route
// through it (every router's reroute flag is raised), and new routes detour
// around the dead link deadlock-free. Worms already granted the link drain
// gracefully — switch allocation still serves active owners — so no flit
// is lost at the instant of death. The kill is refused (returns false)
// when there is no link, the link is already dead, or removing it would
// disconnect the graph of bidirectionally-alive links the routing table is
// built on; refusing keeps every fault schedule drainable. Only mesh ports
// can die; the ejection "link" is node-internal.
func (n *Network) KillLink(node, port int) bool {
	if port < 0 || port >= NumDirections {
		panic(fmt.Sprintf("noc: KillLink port %d out of range [0,%d)", port, NumDirections))
	}
	op := &n.routers[node].out[port]
	if op.dest == nil || op.dead {
		return false
	}
	op.dead = true // tentatively, for the connectivity probe
	if !n.aliveBiConnected() {
		op.dead = false
		return false
	}
	n.recovery.DeadLinks++
	n.rebuildFaultTable()
	for i := range n.routers {
		n.routers[i].reroute = true
	}
	return true
}

// DeadLinks returns the number of permanently killed mesh links.
func (n *Network) DeadLinks() int { return n.recovery.DeadLinks }
