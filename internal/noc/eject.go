package noc

import "math/bits"

// ejector is the ejection side of a node's network interface: per-VC
// reassembly buffers drained one flit per cycle. Completed packets are
// delivered to the network's ejection handler; every drained flit returns a
// credit to the router's ejection output port.
type ejector struct {
	net  *Network
	node int
	vcs  []pktRing // a long packet's worth of flits each, in the network's handle slab
	// size[v] is the size of the packet at the front of vcs[v], read when
	// its head flit drains.
	size []int32
	// arrivals staged by the router's ST this cycle (at most one: the
	// ejection port has one switch output).
	arrivals []stagedFlit
	// nonEmpty has bit v set while vcs[v] holds a flit; next is the
	// round-robin pointer of consume's pick over it.
	nonEmpty uint32
	next     int
	// router is the node's router: its ejection output port's credits track
	// this ejector's buffer space.
	router *router
}

// init builds the ejector of router's node out of the network's slabs.
func (e *ejector) init(net *Network, router *router, sl *slabs) {
	cfg := &net.cfg
	*e = ejector{
		net:      net,
		node:     router.id,
		vcs:      carve(&sl.rings, cfg.VCs),
		size:     carve(&sl.int32s, cfg.VCs),
		arrivals: carve(&sl.staged, 1)[:0],
		router:   router,
	}
	for v := range e.vcs {
		e.vcs[v] = sl.ring(net.longPkt)
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
		e.vcs[sf.vc].push(e.net.handles, e.net.longPkt, flit{h: sf.h, seq: sf.seq})
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

// consume drains one flit this cycle, round-robin across VCs, and delivers
// a packet whose tail flit has drained. A closed sink gate (node ingress
// full) stops ejection entirely, backing traffic into the network.
func (e *ejector) consume(now int64) {
	if g := e.net.sinkGate; g != nil && !g(e.node) {
		return
	}
	v := e.pickVC()
	if v < 0 {
		return
	}
	q, handles := &e.vcs[v], e.net.handles
	if q.seq == 0 {
		e.size[v] = int32(e.net.pkts.of(q.front(handles).h).Size)
	}
	f, tail := q.pop(handles, e.net.longPkt, int(e.size[v]))
	if q.empty() {
		e.nonEmpty &^= 1 << uint(v)
	}
	e.addFlits(-1)
	e.router.returnCredit(int32(ejectPortIndex), int32(v))
	e.net.stats.EjectFlits++
	if !tail {
		return
	}
	// The tail leaves the fabric's buffers: the packet's table slot is
	// released before the handler, which may recycle the packet.
	pkt := e.net.pkts.of(f.h)
	e.net.pkts.release(f.h)
	e.net.deliver(e.node, pkt, now)
}
