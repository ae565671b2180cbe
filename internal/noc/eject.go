package noc

import "math/bits"

// ejector is the ejection side of a node's network interface: per-VC
// reassembly buffers drained at a fixed flit rate. Completed packets are
// delivered to the network's ejection handler; every drained flit returns a
// credit to the router's ejection output port.
type ejector struct {
	net  *Network
	node int
	vcs  []flitQueue
	// arrivals staged by the router's ST this cycle (at most one: the
	// ejection port has one switch output).
	arrivals []stagedFlit
	// nonEmpty has bit v set while vcs[v] holds a flit; next is the
	// round-robin pointer of consume's pick over it.
	nonEmpty uint32
	next     int
	rate     int
	// router is the node's router: its ejection output port's credits track
	// this ejector's buffer space.
	router *router
	// vcBad accumulates, per reassembly VC, whether any flit of the packet
	// currently reassembling arrived corrupted — the model of the receiving
	// NI recomputing the packet CRC. Nil when recovery is disabled
	// (corrupted packets are then delivered undetected).
	vcBad []bool
}

// init builds the ejector of router's node out of the network's slabs.
func (e *ejector) init(net *Network, router *router, sl *slabs) {
	cfg := &net.cfg
	*e = ejector{
		net:      net,
		node:     router.id,
		vcs:      carve(&sl.queues, cfg.VCs),
		arrivals: carve(&sl.staged, 1)[:0],
		rate:     cfg.EjectRate,
		router:   router,
	}
	for v := range e.vcs {
		e.vcs[v].buf = carve(&sl.flits, cfg.VCDepth)
	}
	if cfg.RetransBufPkts > 0 {
		e.vcBad = carve(&sl.bools, cfg.VCs)
	}
}

// flitCount reads the ejector's activity predicate (the network's
// ejectFlits slot): buffered plus staged flits.
func (e *ejector) flitCount() int { return int(e.net.ejectFlits[e.node]) }

// addFlits adjusts the ejector's activity predicate: incremented by the
// router's traverse, decremented as consume drains.
func (e *ejector) addFlits(d int) { e.net.ejectFlits[e.node] += int32(d) }

// applyArrivals lands every flit the router staged last cycle.
func (e *ejector) applyArrivals() {
	for _, sf := range e.arrivals {
		e.vcs[sf.vc].push(sf.f)
		e.nonEmpty |= 1 << uint(sf.vc)
	}
	e.arrivals = e.arrivals[:0]
}

// pickVC grants the first non-empty VC at or after the round-robin pointer,
// cyclically, and moves the pointer past it; -1 when every VC is empty.
func (e *ejector) pickVC() int {
	if e.nonEmpty == 0 {
		return -1
	}
	// Rotating right by the pointer puts the VC scanned first at bit 0 and
	// keeps the cyclic order (every VC bit is below len(vcs) <= 32).
	v := (e.next + bits.TrailingZeros32(bits.RotateLeft32(e.nonEmpty, -e.next))) & 31
	if e.next = v + 1; e.next == len(e.vcs) {
		e.next = 0
	}
	return v
}

// consume drains up to rate flits this cycle, round-robin across VCs, and
// delivers packets whose tail flit has drained. A closed sink gate (node
// ingress full) stops ejection entirely, backing traffic into the network.
func (e *ejector) consume(now int64) {
	if g := e.net.sinkGate; g != nil && !g(e.node) {
		return
	}
	for k := 0; k < e.rate; k++ {
		v := e.pickVC()
		if v < 0 {
			return
		}
		f := e.vcs[v].pop()
		if e.vcs[v].empty() {
			e.nonEmpty &^= 1 << uint(v)
		}
		e.addFlits(-1)
		e.router.returnCredit(int32(ejectPortIndex), int32(v))
		e.net.stats.EjectFlits++
		if f.isBad() && e.vcBad != nil {
			e.vcBad[v] = true
		}
		if f.isTail() {
			// The tail leaves the fabric's buffers: the packet's table slot
			// is released before the handler, which may recycle the packet.
			pkt := e.net.pkts.of(f)
			e.net.pkts.release(f.h)
			if e.vcBad != nil && e.vcBad[v] {
				// CRC mismatch at reassembly: drop the packet and NACK the
				// source; the sender's retransmission buffer still holds it.
				// Credits were returned per flit above, so flow control is
				// already settled; inFlight stays up until a clean copy of
				// this packet is delivered.
				e.vcBad[v] = false
				e.net.dropCorrupt(e.node, pkt, now)
				continue
			}
			if e.vcBad != nil {
				// Clean delivery: ACK frees the sender's retransmission slot.
				// Sent before the handler, which may recycle the shell.
				e.net.sendCtl(e.node, pkt.Src, pkt.ID, false, now)
			}
			e.net.deliver(e.node, pkt, now)
		}
	}
}
