package noc

import (
	"fmt"
	"math/bits"
	"sort"
)

// String names the input-VC states for diagnostics.
func (s vcState) String() string {
	switch s {
	case vcIdle:
		return "idle"
	case vcWaitVC:
		return "waitVC"
	case vcActive:
		return "active"
	default:
		return fmt.Sprintf("vcState(%d)", uint8(s))
	}
}

// DumpState renders StateSnapshot as text: the payload of watchdog
// failures (deadlock/starvation reports). Safe at any cycle boundary — it
// only reads.
func (n *Network) DumpState() string { return n.StateSnapshot().String() }

// forEachBufferedPacket visits every distinct packet with at least one flit
// resident in the network (NI queues, VC buffers, staged arrivals, ejector
// reassembly buffers).
func (n *Network) forEachBufferedPacket(visit func(*Packet)) {
	seen := make(map[*Packet]bool)
	mark := func(p *Packet) {
		if !seen[p] {
			seen[p] = true
			visit(p)
		}
	}
	markQueue := func(q *flitQueue) {
		for i := 0; i < q.len(); i++ {
			mark(q.at(i).pkt)
		}
	}
	markStaged := func(staged []stagedFlit) {
		for i := range staged {
			mark(staged[i].f.pkt)
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		markQueue(&ni.queue)
		for v := range ni.splitQueues {
			markQueue(&ni.splitQueues[v])
		}
	}
	for i := range n.routers {
		r := &n.routers[i]
		markStaged(r.staged)
		for g := range r.vcs {
			markQueue(&r.vcs[g].buf)
		}
	}
	for i := range n.ejectors {
		e := &n.ejectors[i]
		markStaged(e.arrivals)
		for v := range e.vcs {
			markQueue(&e.vcs[v])
		}
	}
}

// OldestPackets returns up to k distinct in-flight packets ordered by
// CreatedAt (oldest first, packet ID tie-break). O(buffers); diagnostics and
// the starvation watchdog use it, not the hot loop.
func (n *Network) OldestPackets(k int) []*Packet {
	var pkts []*Packet
	n.forEachBufferedPacket(func(p *Packet) { pkts = append(pkts, p) })
	sort.Slice(pkts, func(i, j int) bool {
		if pkts[i].CreatedAt != pkts[j].CreatedAt {
			return pkts[i].CreatedAt < pkts[j].CreatedAt
		}
		return pkts[i].ID < pkts[j].ID
	})
	if len(pkts) > k {
		pkts = pkts[:k]
	}
	return pkts
}

// OldestPacketAge returns the age in cycles of the oldest in-flight packet,
// or 0 when the network holds none: the same answer as OldestPackets(1),
// read as a minimum of CreatedAt over the buffered flits. It skips every
// router, ejector and NI whose activity counter is zero and allocates
// nothing — the starvation watchdog calls it every poll.
func (n *Network) OldestPacketAge() int64 {
	oldest := n.now // no packet is younger than the current cycle
	queue := func(q *flitQueue) {
		for i := 0; i < q.len(); i++ {
			oldest = min(oldest, q.at(i).pkt.CreatedAt)
		}
	}
	staged := func(s []stagedFlit) {
		for i := range s {
			oldest = min(oldest, s[i].f.pkt.CreatedAt)
		}
	}
	for i := range n.routers {
		if n.niQueued[i] > 0 {
			ni := &n.nis[i]
			queue(&ni.queue)
			for v := range ni.splitQueues {
				queue(&ni.splitQueues[v])
			}
		}
		if n.routerFlits[i] > 0 {
			r := &n.routers[i]
			staged(r.staged)
			for p := range r.in {
				for m := r.in[p].nonEmpty; m != 0; m &= m - 1 {
					queue(&r.vcs[p*r.nvc+bits.TrailingZeros32(m)].buf)
				}
			}
		}
		if n.ejectFlits[i] > 0 {
			e := &n.ejectors[i]
			staged(e.arrivals)
			for m := e.nonEmpty; m != 0; m &= m - 1 {
				queue(&e.vcs[bits.TrailingZeros32(m)])
			}
		}
	}
	return n.now - oldest
}
