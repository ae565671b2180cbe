package noc

import (
	"fmt"
	"math/bits"
)

// CheckInvariants validates the network's internal consistency. It is
// O(buffers) and intended for tests and debugging, not the hot loop. The
// checked invariants are the correctness core of credit-based wormhole
// switching:
//
//  1. no buffer ever exceeds its capacity;
//  2. credit conservation: for every (output port, VC), the sender's
//     credit count plus flits resident in (or staged toward) the matching
//     downstream buffer plus credits staged back equals the buffer depth,
//     and the downstream VC an active input VC (or an NI's bound packet)
//     holds has a credit for every flit of the packet still to send;
//  3. ownership coherence: a downstream VC owned by an input VC is the
//     one that input VC is actively forwarding into, and vice versa;
//  4. wormhole contiguity: within any VC buffer, flits form contiguous
//     ascending runs per packet and packets never interleave;
//
// and, for the packet table flits name their packets through (checkPackets),
// that its live slots are exactly the packets with a flit in the network.
//
// It also asserts that every incrementally maintained index the allocators
// iterate instead of scanning — the per-port VC masks, the free-VC and
// dirty-credit masks, the waiting/active counts, the candidate-output masks
// — equals a full recount, that no waiter VA would skip is grantable, and
// that every node with work is in the busy set Step walks.
func (n *Network) CheckInvariants() error {
	if err := n.checkRecovery(); err != nil {
		return err
	}
	if err := n.checkPackets(); err != nil {
		return err
	}
	for i := range n.routers {
		if err := n.checkRouter(&n.routers[i]); err != nil {
			return fmt.Errorf("router %d: %w", i, err)
		}
	}
	return nil
}

// checkRecovery validates the fault-recovery protocol layer (recovery.go):
//
//  5. every NI's retransmission buffer respects its cap and its pending
//     counter matches a recount;
//  6. ctlPending equals the ACK/NACK signals actually sitting in NI
//     inboxes (no signal is lost or double-counted);
//  7. when nothing is in flight and no signal is pending, every
//     retransmission buffer is empty — each accepted packet was delivered
//     exactly once and acknowledged.
func (n *Network) checkRecovery() error {
	if !n.recoveryOn() {
		return nil
	}
	inbox := 0
	for id := range n.nis {
		ni := &n.nis[id]
		if len(ni.retrans) > ni.retransCap {
			return fmt.Errorf("ni %d: %d retrans entries exceed cap %d", id, len(ni.retrans), ni.retransCap)
		}
		pending := 0
		for i := range ni.retrans {
			if ni.retrans[i].pending {
				pending++
			}
		}
		if pending != ni.retransPending {
			return fmt.Errorf("ni %d: retransPending %d != recounted %d", id, ni.retransPending, pending)
		}
		inbox += len(ni.inbox)
	}
	if inbox != n.ctlPending {
		return fmt.Errorf("ctlPending %d != %d signals in NI inboxes", n.ctlPending, inbox)
	}
	if n.inFlight == 0 && n.ctlPending == 0 {
		for id := range n.nis {
			if ni := &n.nis[id]; len(ni.retrans) != 0 {
				return fmt.Errorf("ni %d: %d retrans entries with nothing in flight or pending", id, len(ni.retrans))
			}
		}
	}
	return nil
}

// countStaged counts the staged flits bound for input port p (for VC v of it
// when v >= 0).
func countStaged(staged []stagedFlit, p, v int) int {
	c := 0
	for i := range staged {
		if int(staged[i].port) == p && (v < 0 || int(staged[i].vc) == v) {
			c++
		}
	}
	return c
}

func (n *Network) checkRouter(r *router) error {
	depth := n.longPkt

	// (0): the incremental activity counters of event-driven stepping must
	// agree with a full recount, and the node's busy bit must be set while
	// any of them is non-zero (a divergence would silently de-schedule a
	// busy component).
	recount := len(r.staged)
	for g := range r.vcs {
		recount += r.vcs[g].buf.len()
	}
	if recount != r.flitCount() {
		return fmt.Errorf("activity counter %d != recounted %d flits", r.flitCount(), recount)
	}
	e := &n.ejectors[r.id]
	recount = len(e.arrivals)
	var ejNonEmpty uint32
	for v := range e.vcs {
		recount += e.vcs[v].len()
		if !e.vcs[v].empty() {
			ejNonEmpty |= 1 << uint(v)
		}
	}
	if recount != e.flitCount() {
		return fmt.Errorf("ejector activity counter %d != recounted %d flits", e.flitCount(), recount)
	}
	if e.nonEmpty != ejNonEmpty {
		return fmt.Errorf("ejector mask nonEmpty %04b != recounted %04b", e.nonEmpty, ejNonEmpty)
	}
	ni := &n.nis[r.id]
	recount = ni.queue.len()
	for q := range ni.splitQueues {
		recount += ni.splitQueues[q].len()
	}
	if recount != ni.queuedFlits() {
		return fmt.Errorf("NI activity counter %d != recounted %d queued flits", ni.queuedFlits(), recount)
	}
	// A node with work must be in the busy set, or Step would never visit it.
	if n.busy[r.id>>6]&(1<<(r.id&63)) == 0 &&
		(r.flitCount() > 0 || e.flitCount() > 0 || ni.queuedFlits() > 0 || ni.protoActive()) {
		return fmt.Errorf("busy bit clear with %d router, %d ejector, %d NI flits (protocol work %v)",
			r.flitCount(), e.flitCount(), ni.queuedFlits(), ni.protoActive())
	}
	if err := checkMasks(r); err != nil {
		return err
	}

	// (1) and (4): buffer bounds and contiguity.
	for g := range r.vcs {
		buf := &r.vcs[g].buf
		if buf.len() > depth {
			return fmt.Errorf("port %d vc %d: %d flits exceed depth %d", g/r.nvc, g%r.nvc, buf.len(), depth)
		}
		if err := n.checkContiguity(buf); err != nil {
			return fmt.Errorf("port %d vc %d: %w", g/r.nvc, g%r.nvc, err)
		}
	}

	// (2): credit conservation per output VC.
	for o := range r.out {
		op := &r.out[o]
		for v := range op.vcs {
			credits := int(op.vcs[v].credits + op.creditIn[v])
			var resident int
			switch {
			case op.dest != nil:
				p := int(op.destPort)
				resident = op.dest.vcs[p*r.nvc+v].buf.len() + countStaged(op.dest.staged, p, v)
			case op.eject != nil:
				resident = op.eject.vcs[v].len() + countStaged(op.eject.arrivals, 0, v)
			}
			if credits+resident != depth {
				return fmt.Errorf("out %d vc %d: credits %d + resident %d != depth %d",
					o, v, credits, resident, depth)
			}
		}
	}

	// (3): ownership coherence in both directions.
	for o := range r.out {
		op := &r.out[o]
		for v := range op.vcs {
			owner := op.owner(v, r.nvc)
			if owner < 0 {
				continue
			}
			vc := &r.vcs[owner]
			if vc.state != vcActive || int(vc.outPort) != o || int(vc.outVC) != v {
				return fmt.Errorf("out %d vc %d: owner %d not forwarding into it (state %d, out %d/%d)",
					o, v, owner, vc.state, vc.outPort, vc.outVC)
			}
		}
	}
	for g := range r.vcs {
		vc := &r.vcs[g]
		if vc.state != vcActive {
			continue
		}
		if owner := r.out[vc.outPort].owner(int(vc.outVC), r.nvc); owner != g {
			return fmt.Errorf("vc %d active toward %d/%d but not its owner (owner %d)",
				g, vc.outPort, vc.outVC, owner)
		}
	}

	// NI-side credit conservation for injection VCs.
	for i, c := range ni.vcCredits {
		p, v := NumDirections+i/r.nvc, i%r.nvc
		buffered, staged := r.vcs[p*r.nvc+v].buf.len(), countStaged(r.staged, p, v)
		if int(c)+buffered+staged != depth {
			return fmt.Errorf("injection port %d vc %d: NI credits %d + buffered %d + staged %d != depth %d",
				p-NumDirections, v, c, buffered, staged, depth)
		}
	}
	// bindHead reserved the whole packet: stepFIFO never tests a credit.
	if ni.boundVC >= 0 {
		f := ni.queue.front()
		if need, c := n.pkts.of(f).Size-int(f.seq), ni.vcCredits[ni.boundPort*r.nvc+ni.boundVC]; int(c) < need {
			return fmt.Errorf("NI bound to injection port %d vc %d with %d credits for %d queued flits",
				ni.boundPort, ni.boundVC, c, need)
		}
	}
	return nil
}

// activityMasks recounts the router-level masks rcPorts, bidPorts and
// creditOuts from the port masks and creditDirty.
func activityMasks(r *router) (rcPorts, bidPorts uint32, creditOuts uint8) {
	for p := range r.in {
		ip := &r.in[p]
		if ip.nonEmpty&^(ip.waitVC|ip.active) != 0 {
			rcPorts |= 1 << uint(p)
		}
		if ip.nonEmpty&ip.active != 0 {
			bidPorts |= 1 << uint(p)
		}
	}
	for o, m := range r.creditDirty {
		if m != 0 {
			creditOuts |= 1 << uint(o)
		}
	}
	return rcPorts, bidPorts, creditOuts
}

// checkMasks recounts every mask and count the allocators rely on from the
// per-VC and per-output-VC state they index.
func checkMasks(r *router) error {
	var waiting int32
	for p := range r.in {
		var nonEmpty, waitVC, act uint32
		for v := 0; v < r.nvc; v++ {
			vc := &r.vcs[p*r.nvc+v]
			bit := uint32(1) << uint(v)
			if !vc.buf.empty() {
				nonEmpty |= bit
			}
			switch vc.state {
			case vcWaitVC:
				waitVC |= bit
				if vc.buf.empty() {
					return fmt.Errorf("port %d vc %d: waiting for a VC with no head flit", p, v)
				}
				var outs uint8
				for _, c := range vc.cands[:vc.nCands] {
					outs |= 1 << uint(c.port)
				}
				if vc.candOuts != outs {
					return fmt.Errorf("port %d vc %d: candOuts %05b != recounted %05b", p, v, vc.candOuts, outs)
				}
			case vcActive:
				act |= bit
				// VA granted credits for the whole packet and only this VC
				// spends them: SA never tests one.
				need := 1
				if !vc.buf.empty() {
					f := vc.buf.front()
					need = r.net.pkts.of(f).Size - int(f.seq)
				}
				if c := r.out[vc.outPort].vcs[vc.outVC].credits; int(c) < need {
					return fmt.Errorf("port %d vc %d: downstream vc %d/%d has %d credits for %d unsent flits",
						p, v, vc.outPort, vc.outVC, c, need)
				}
			}
		}
		ip := &r.in[p]
		if ip.nonEmpty != nonEmpty || ip.waitVC != waitVC || ip.active != act {
			return fmt.Errorf("port %d: masks nonEmpty/waitVC/active %04b/%04b/%04b != recounted %04b/%04b/%04b",
				p, ip.nonEmpty, ip.waitVC, ip.active, nonEmpty, waitVC, act)
		}
		if ip.vaFresh&^waitVC != 0 {
			return fmt.Errorf("port %d: vaFresh %04b outside waitVC %04b", p, ip.vaFresh, waitVC)
		}
		waiting += int32(bits.OnesCount32(waitVC))
	}
	if r.waitVCs != waiting {
		return fmt.Errorf("waiting count %d != recounted %d", r.waitVCs, waiting)
	}
	for g := range r.vcs {
		vc := &r.vcs[g]
		if vc.state == vcIdle {
			continue
		}
		if g < NumDirections*r.nvc && vc.waitSince < r.starveFloor {
			return fmt.Errorf("vc %d: waitSince %d below the starvation floor %d", g, vc.waitSince, r.starveFloor)
		}
		// VA skips every waiter while vaRetry is clear, and in a pass each
		// waiter that is not fresh and has no candidate output in vaDirty.
		fresh := r.in[g/r.nvc].vaFresh&(1<<uint(g%r.nvc)) != 0
		if vc.state == vcWaitVC && (!r.vaRetry || (!fresh && vc.candOuts&r.vaDirty == 0)) {
			if o, v := r.pickOutVC(vc); o >= 0 {
				return fmt.Errorf("vc %d: grantable out %d/%d while VA would skip it (vaRetry %v, vaDirty %05b)",
					g, o, v, r.vaRetry, r.vaDirty)
			}
		}
	}
	for o := range r.out {
		op := &r.out[o]
		var free, dirty uint32
		for v := range op.vcs {
			if op.vcs[v].ownerPort < 0 {
				free |= 1 << uint(v)
			}
			if op.creditIn[v] != 0 {
				dirty |= 1 << uint(v)
			}
		}
		if op.free != free || r.creditDirty[o] != dirty {
			return fmt.Errorf("out %d: masks free/creditDirty %04b/%04b != recounted %04b/%04b",
				o, op.free, r.creditDirty[o], free, dirty)
		}
	}
	// The output masks are recounted above, so recounting the router-level
	// masks from them checks those against the VC state too.
	if rc, bid, credit := activityMasks(r); r.rcPorts != rc || r.bidPorts != bid || r.creditOuts != credit {
		return fmt.Errorf("masks rcPorts/bidPorts/creditOuts %b/%b/%05b != recounted %b/%b/%05b",
			r.rcPorts, r.bidPorts, r.creditOuts, rc, bid, credit)
	}
	for i := range r.sps {
		if sp := &r.sps[i]; sp.mask&(1<<sp.next) == 0 {
			return fmt.Errorf("switch-port %d: pointer %d outside its VC set %04b", i, sp.next, sp.mask)
		}
	}
	return nil
}

// checkContiguity verifies (4) for one buffer: per-packet flit sequences
// ascend by one, a packet's flits are never interleaved with another's, and
// only a packet's last flit carries the tail bit.
func (n *Network) checkContiguity(q *flitQueue) error {
	var cur *Packet
	expect := 0
	for i := 0; i < q.len(); i++ {
		f := q.at(i)
		pkt := n.pkts.of(f)
		if cur == nil || pkt != cur {
			if cur != nil && expect != 0 && expect != cur.Size {
				// Previous packet truncated mid-stream inside the buffer is
				// fine only if its earlier flits already left; a *new*
				// packet may only start at a head flit.
				if !f.isHead() {
					return fmt.Errorf("packet %d interleaved mid-stream", pkt.ID)
				}
			}
			cur = pkt
			expect = int(f.seq)
		}
		if int(f.seq) != expect {
			return fmt.Errorf("packet %d flit %d out of order (want %d)", pkt.ID, f.seq, expect)
		}
		expect++
		if f.isTail() != (expect == cur.Size) {
			return fmt.Errorf("packet %d flit %d of %d: tail bit %v", pkt.ID, f.seq, cur.Size, f.isTail())
		}
		if expect == cur.Size {
			cur, expect = nil, 0
		}
	}
	return nil
}

// forEachFlit visits every flit resident in the network — NI and split
// queues, router staging lists and VC rings, ejector arrivals and rings —
// with the node it sits at.
func (n *Network) forEachFlit(visit func(node int, f flit)) {
	queue := func(node int, q *flitQueue) {
		for i := 0; i < q.len(); i++ {
			visit(node, q.at(i))
		}
	}
	staged := func(node int, s []stagedFlit) {
		for i := range s {
			visit(node, s[i].f)
		}
	}
	for id := range n.routers {
		ni, r, e := &n.nis[id], &n.routers[id], &n.ejectors[id]
		queue(id, &ni.queue)
		for v := range ni.splitQueues {
			queue(id, &ni.splitQueues[v])
		}
		staged(id, r.staged)
		for g := range r.vcs {
			queue(id, &r.vcs[g].buf)
		}
		staged(id, e.arrivals)
		for v := range e.vcs {
			queue(id, &e.vcs[v])
		}
	}
}

// checkPackets validates the packet table (pool.go):
//
//  8. every resident flit names a live slot and every live slot is named by
//     a resident flit, so the live slots are exactly the packets in the
//     network (the watchdog's minimum over them is the minimum over the
//     buffers);
//  9. the live slots are the packets accepted and not yet retired: inFlight
//     less the dropped packets awaiting retransmission (NACKs on the
//     sideband, NACKed retransmission-buffer entries).
func (n *Network) checkPackets() error {
	named := make([]bool, len(n.pkts.pkts))
	var err error
	n.forEachFlit(func(node int, f flit) {
		switch {
		case err != nil:
		case int(f.h) >= len(named) || n.pkts.pkts[f.h] == nil:
			err = fmt.Errorf("node %d: flit %d names free packet slot %d", node, f.seq, f.h)
		default:
			named[f.h] = true
		}
	})
	if err != nil {
		return err
	}
	for h, p := range n.pkts.pkts {
		if p != nil && !named[h] {
			return fmt.Errorf("packet %d holds slot %d with no flit in the network", p.ID, h)
		}
	}
	awaiting := 0
	for id := range n.nis {
		ni := &n.nis[id]
		awaiting += ni.retransPending
		for _, c := range ni.inbox {
			if c.nack {
				awaiting++
			}
		}
	}
	if live := n.pkts.live(); live != n.inFlight-awaiting {
		return fmt.Errorf("%d live packet slots != %d in flight - %d awaiting retransmission", live, n.inFlight, awaiting)
	}
	return nil
}
