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
//  4. wormhole contiguity: every buffer's packet ring accounts for exactly
//     its resident flits (checkRing), and a VC forwards the packet whose
//     size it captured;
//
// and, for the packet table rings and flits name their packets through
// (checkPackets), that its live slots are exactly the packets with a flit
// in the network.
//
// It also asserts that every incrementally maintained index the allocators
// iterate instead of scanning — the per-port VC masks, the free-VC and
// dirty-credit masks, the waiting/active counts, the candidate-output masks
// — equals a full recount, that no waiter VA would skip is grantable, and
// that every node with work is in the busy set Step walks.
func (n *Network) CheckInvariants() error {
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
	for v := range e.vcs {
		if err := n.pkts.checkRing(&e.vcs[v], n.handles, depth, false); err != nil {
			return fmt.Errorf("ejector vc %d: %w", v, err)
		}
		// consume reads the front packet's size as its head drains.
		if q := &e.vcs[v]; q.seq != 0 && int(e.size[v]) != n.pkts.of(q.front(n.handles).h).Size {
			return fmt.Errorf("ejector vc %d: size %d for the front packet of %d flits", v, e.size[v], n.pkts.of(q.front(n.handles).h).Size)
		}
	}
	if err := n.pkts.checkRing(&ni.queue, n.handles, ni.queueCap, true); err != nil {
		return fmt.Errorf("NI queue: %w", err)
	}
	for v := range ni.splitQueues {
		q := &ni.splitQueues[v]
		if err := n.pkts.checkRing(q, n.handles, ni.queueCap, true); err != nil {
			return fmt.Errorf("NI split queue %d: %w", v, err)
		}
		if q.seq != 0 && int(ni.splitSize[v]) != n.pkts.of(q.front(n.handles).h).Size {
			return fmt.Errorf("NI split queue %d: size %d for the front packet of %d flits", v, ni.splitSize[v], n.pkts.of(q.front(n.handles).h).Size)
		}
	}
	// A node with work must be in the busy set, or Step would never visit it.
	if n.busy[r.id>>6]&(1<<(r.id&63)) == 0 &&
		(r.flitCount() > 0 || e.flitCount() > 0 || ni.queuedFlits() > 0) {
		return fmt.Errorf("busy bit clear with %d router, %d ejector, %d NI flits",
			r.flitCount(), e.flitCount(), ni.queuedFlits())
	}
	// (1) and (4): buffer bounds and contiguity, checked before anything
	// reads a ring's front. A mesh-edge port has no ring, so none of its
	// VCs may hold a packet.
	for g := range r.vcs {
		buf := &r.vcs[g].buf
		p := g / r.nvc
		if p < NumDirections && r.in[p].upstream < 0 && (buf.n > 0 || countStaged(r.staged, p, -1) > 0) {
			return fmt.Errorf("port %d vc %d: %d packets at a port no link feeds", p, g%r.nvc, buf.n)
		}
		if err := n.pkts.checkRing(buf, n.handles, depth, false); err != nil {
			return fmt.Errorf("port %d vc %d: %w", p, g%r.nvc, err)
		}
	}
	if err := checkMasks(r); err != nil {
		return err
	}

	// (2): credit conservation per output VC, and the link wiring it rests
	// on: a mesh output and the input port it feeds name each other.
	for o := range r.out {
		op := &r.out[o]
		if o < NumDirections && op.dest >= 0 {
			p := op.destPort
			if ip := &n.routers[op.dest].in[p]; ip.upstream != int32(r.id) || ip.upOut != int32(o) {
				return fmt.Errorf("out %d feeds router %d port %d, whose upstream is %d/%d", o, op.dest, p, ip.upstream, ip.upOut)
			}
		}
		for v := 0; v < r.nvc; v++ {
			i := o*r.nvc + v
			credits := int(r.outVCs[i].credits + r.creditIn[i])
			var resident int
			switch {
			case o == ejectPortIndex:
				resident = e.vcs[v].len() + countStaged(e.arrivals, 0, v)
			case op.dest >= 0:
				dst, p := &n.routers[op.dest], int(op.destPort)
				resident = dst.vcs[p*r.nvc+v].buf.len() + countStaged(dst.staged, p, v)
			}
			if credits+resident != depth {
				return fmt.Errorf("out %d vc %d: credits %d + resident %d != depth %d",
					o, v, credits, resident, depth)
			}
		}
	}

	// (3): ownership coherence in both directions.
	for o := range r.out {
		for v := 0; v < r.nvc; v++ {
			owner := r.owner(o, v)
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
		if owner := r.owner(int(vc.outPort), int(vc.outVC)); owner != g {
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
		f := ni.queue.front(n.handles)
		size := n.pkts.of(f.h).Size
		if need, c := size-int(f.seq), ni.vcCredits[ni.boundPort*r.nvc+ni.boundVC]; int(c) < need || ni.boundSize != size {
			return fmt.Errorf("NI bound to injection port %d vc %d with %d credits for %d queued flits of a %d-flit packet (bound size %d)",
				ni.boundPort, ni.boundVC, c, need, size, ni.boundSize)
		}
	} else if ni.queue.seq != 0 {
		return fmt.Errorf("NI unbound with flit %d of its front packet sent", ni.queue.seq)
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
			if vc.state != vcIdle {
				// traverse pops the front packet with the size RC captured.
				if vc.buf.n == 0 {
					return fmt.Errorf("port %d vc %d: %v with no packet", p, v, vc.state)
				}
				if size := r.net.pkts.of(vc.buf.front(r.net.handles).h).Size; int(vc.need) != size {
					return fmt.Errorf("port %d vc %d: need %d for a %d-flit packet", p, v, vc.need, size)
				}
			}
			switch vc.state {
			case vcWaitVC:
				waitVC |= bit
				if vc.buf.empty() || vc.buf.seq != 0 {
					return fmt.Errorf("port %d vc %d: waiting for a VC with no head flit", p, v)
				}
				// A waiter tried before is counted in its candidates' vaNeed.
				for _, c := range vc.cands[:vc.nCands] {
					if r.in[p].vaFresh&bit == 0 && r.vaNeed[c.port] > int32(vc.need) {
						return fmt.Errorf("port %d vc %d: need %d below vaNeed %d of output %d", p, v, vc.need, r.vaNeed[c.port], c.port)
					}
				}
			case vcActive:
				act |= bit
				// VA granted credits for the whole packet and only this VC
				// spends them: SA never tests one.
				need := int(vc.need) - int(vc.buf.seq)
				if c := r.outVC(int(vc.outPort), int(vc.outVC)).credits; int(c) < need {
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
		// waiter that is not fresh and has no candidate output offering its
		// need.
		fresh := r.in[g/r.nvc].vaFresh&(1<<uint(g%r.nvc)) != 0
		if vc.state == vcWaitVC && (!r.vaRetry || (!fresh && !r.offered(vc))) {
			if o, v := r.pickOutVC(vc); o >= 0 {
				return fmt.Errorf("vc %d: grantable out %d/%d while VA would skip it (vaRetry %v, vaLevel %v, need %d)",
					g, o, v, r.vaRetry, r.vaLevel, vc.need)
			}
		}
	}
	for o := range r.out {
		op := &r.out[o]
		var free, dirty uint32
		for v := 0; v < r.nvc; v++ {
			if r.outVC(o, v).ownerPort < 0 {
				free |= 1 << uint(v)
			}
			if r.creditIn[o*r.nvc+v] != 0 {
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

// checkRing verifies (1) and (4) for one packet ring of the given
// capacity: its counts fit it, every handle names a live packet, the front
// packet's next flit is below its size, and the resident flits are what the
// handles account for — the front packet's from seq on and every whole
// packet between the front and the back, plus at least one flit of the back
// (all of it in a queue that takes whole packets). A lone front packet may
// have fewer flits resident than it has left, none included, while the rest
// of it is on its way.
func (t *pktTable) checkRing(q *pktRing, slab []uint32, capacity int, whole bool) error {
	if int(q.flits) > capacity || int(q.n) > capacity {
		return fmt.Errorf("%d flits and %d packets exceed capacity %d", q.flits, q.n, capacity)
	}
	if q.n == 0 {
		if q.flits != 0 || q.seq != 0 {
			return fmt.Errorf("no packet, yet %d flits resident and front flit %d", q.flits, q.seq)
		}
		return nil
	}
	left := int(q.flits) // resident flits no packet has accounted for yet
	for i := 0; i < int(q.n); i++ {
		h := q.handle(slab, capacity, i)
		if int(h) >= len(t.pkts) || t.pkts[h] == nil {
			return fmt.Errorf("packet %d of %d names free slot %d", i, q.n, h)
		}
		p := t.pkts[h]
		rest := p.Size // its flits not yet sent on
		if i == 0 {
			if int(q.seq) >= p.Size {
				return fmt.Errorf("front packet %d at flit %d of %d", p.ID, q.seq, p.Size)
			}
			rest -= int(q.seq)
		}
		if i < int(q.n)-1 {
			left -= rest
			continue
		}
		lo := 1 // the back packet's head has landed
		if q.n == 1 {
			lo = 0
		}
		if whole {
			lo = rest
		}
		if left < lo || left > rest {
			return fmt.Errorf("%d flits resident, leaving %d for back packet %d with %d of %d flits left (at least %d)",
				q.flits, left, p.ID, rest, p.Size, lo)
		}
	}
	return nil
}

// forEachHandle visits every packet handle the network's buffers name — NI
// and split queues, router staging lists and VC rings, ejector arrivals and
// rings — with the node it sits at: a ring names each packet it holds once,
// a staged flit its own packet.
func (n *Network) forEachHandle(visit func(node int, h uint32)) {
	ring := func(node int, q *pktRing, capacity int) {
		for i := 0; i < int(q.n); i++ {
			visit(node, q.handle(n.handles, capacity, i))
		}
	}
	staged := func(node int, s []stagedFlit) {
		for i := range s {
			visit(node, s[i].h)
		}
	}
	for id := range n.routers {
		ni, r, e := &n.nis[id], &n.routers[id], &n.ejectors[id]
		ring(id, &ni.queue, ni.queueCap)
		for v := range ni.splitQueues {
			ring(id, &ni.splitQueues[v], ni.queueCap)
		}
		staged(id, r.staged)
		for g := range r.vcs {
			ring(id, &r.vcs[g].buf, n.longPkt)
		}
		staged(id, e.arrivals)
		for v := range e.vcs {
			ring(id, &e.vcs[v], n.longPkt)
		}
	}
}

// checkPackets validates the packet table (pool.go):
//
//  5. every handle a ring or a staged flit holds names a live slot and
//     every live slot is named by one, so the live slots are exactly the
//     packets in the network (the watchdog's minimum over them is the
//     minimum over the buffers);
//  6. the live slots are the packets accepted and not yet retired:
//     inFlight.
func (n *Network) checkPackets() error {
	named := make([]bool, len(n.pkts.pkts))
	var err error
	n.forEachHandle(func(node int, h uint32) {
		switch {
		case err != nil:
		case int(h) >= len(named) || n.pkts.pkts[h] == nil:
			err = fmt.Errorf("node %d: a buffer names free packet slot %d", node, h)
		default:
			named[h] = true
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
	if live := n.pkts.live(); live != n.inFlight {
		return fmt.Errorf("%d live packet slots != %d in flight", live, n.inFlight)
	}
	return nil
}
