package noc

import (
	"math"
	"math/bits"
)

// ejectPortIndex is the output-port index of the local ejection port; mesh
// output ports use Direction values 0..3.
const ejectPortIndex = NumDirections

// numOutPorts is the number of output ports of every router (4 mesh + 1
// ejection). Injection only adds input ports.
const numOutPorts = NumDirections + 1

// vcState is the input-VC state machine: idle (no packet at the front),
// waitVC (route computed, waiting for a downstream VC), active (downstream
// VC held, flits flowing).
type vcState uint8

const (
	vcIdle vcState = iota
	vcWaitVC
	vcActive
)

// inputVC is one virtual channel of a router input port. VCs live by value
// in router.vcs, indexed port*VCs + vc; the allocators never scan them —
// they iterate the set bits of the owning port's masks (see inputPort) and
// only then touch the VC.
type inputVC struct {
	buf pktRing // a long packet's worth of flits, in the network's handle slab
	// cands[:nCands] are the admissible outputs computed by RC.
	cands [2]routeCandidate
	// effPrio is the packet priority captured at route computation, before
	// the per-hop decrement (§5): the value the packet carried on arrival
	// (Config.Validate bounds it to int16).
	effPrio int16
	// need is the waiting packet's size, captured at route computation: the
	// credits a free downstream VC must hold to be granted (maxPacketFlits
	// bounds it to uint16).
	need   uint16
	nCands uint8
	state  vcState
	// outPort/outVC name the downstream VC held while active, -1 otherwise.
	outPort int8
	outVC   int8
	// waitSince is when the head flit last became eligible without being
	// served; it drives the starvation guard.
	waitSince int64
}

// stagedFlit is flit (h, seq) in flight on a link, delivered into buffer
// (port, vc) of its target at the start of the next cycle. Ejectors have a
// single port and leave port zero. Config.Validate bounds input ports and
// VCs to 32, so each fits a byte.
type stagedFlit struct {
	h        uint32
	seq      uint16
	port, vc uint8
}

// inputPort is a router input port: one of the four mesh ports (indices
// below NumDirections) or an injection port fed by the node's NI. Its
// masks index the port's VCs
// (bit v = VC v; Config.VCs <= 32, so one word always suffices) and are what
// RC, VA and SA iterate instead of the VC array:
//
//	nonEmpty  the VC's buffer holds at least one flit
//	waitVC    state == vcWaitVC
//	active    state == vcActive
//	vaFresh   waiting, and not yet tried by VA since RC
//
// Every mask is maintained at the single place its predicate changes (push,
// pop, RC, VA grant, traversal) and CheckInvariants asserts each one equals
// a recount.
type inputPort struct {
	nonEmpty, waitVC, active, vaFresh uint32

	// upstream/upOut name the neighbouring router's output port feeding this
	// port. upstream is -1 for an injection port, whose credits return to
	// the NI, and for a mesh-edge port, which no link feeds and whose VCs
	// have no ring.
	upstream, upOut int32
}

// outVCState tracks one downstream virtual channel from the sender's side.
type outVCState struct {
	credits int32
	// ownerPort/ownerVC name the input VC currently forwarding a packet into
	// this downstream VC; ownerPort is -1 when it is free.
	ownerPort int16
	ownerVC   int16
}

// outputPort is a router output port: a mesh link to a neighbour or the
// local ejection port. Its per-VC state lives in the router's outVCs and
// creditIn, at o*VCs + v.
type outputPort struct {
	// free has bit v set while downstream VC v has no owner (VA's candidate
	// filter).
	free uint32
	// dest is the neighbour a mesh output feeds, at input port destPort
	// (the direction opposite this output); -1 for the ejection port,
	// which feeds the node's own ejector, and at a mesh edge, where there
	// is no link.
	dest int32

	// flits counts traversals onto this output's link (observability).
	flits    uint64
	destPort int32
}

// outVC returns the sender-side state of downstream VC v of output o.
func (r *router) outVC(o, v int) *outVCState { return &r.outVCs[o*r.nvc+v] }

// owner returns the flat index (port*VCs + vc) of the input VC holding
// downstream VC v of output o, or -1.
func (r *router) owner(o, v int) int {
	ov := r.outVC(o, v)
	if ov.ownerPort < 0 {
		return -1
	}
	return int(ov.ownerPort)*r.nvc + int(ov.ownerVC)
}

// switchPort is one crossbar input. A mesh input port owns one switch-port
// carrying all its VCs; an injection port with speedup s owns s of them, VC
// v demultiplexed onto the port's switch-port v mod s (§4.2, Fig 8). SA
// stage 1 is a round-robin among the member VCs in ascending order; next is
// the member scanned first, advanced past the winner on every grant.
type switchPort struct {
	mask   uint32 // member VCs of the owning input port
	port   int32  // owning input port
	next   uint8
	first  uint8 // lowest member VC
	stride uint8 // distance between member VCs
}

// saGrant is SA stage 2's running winner at one output: VC vc of the input
// port behind switch-port sp, its stage-1 winner, bidding at priority prio.
// rank is the switch-port count minus the request's distance from the
// output's round-robin pointer, so the nearest ranks highest; rank 0 means
// no request yet, and as priorities are never negative any request beats
// that zero value.
type saGrant struct {
	prio         int
	rank, sp, vc int32
}

// offer is SA stage 2 for one request: the output keeps the highest
// priority, ties broken by the highest rank.
func (g *saGrant) offer(sp, vc, rank int32, prio int) {
	if prio > g.prio || (prio == g.prio && rank > g.rank) {
		*g = saGrant{prio: prio, rank: rank, sp: sp, vc: vc}
	}
}

// router is a virtual-channel wormhole router with a single-cycle
// RC/VA/SA/ST pipeline and 1-cycle links, per-injection-port crossbar
// speedup and optional priority-aware switch allocation. All its arrays are
// carved from the owning network's slabs (NewNetwork).
type router struct {
	net  *Network
	id   int
	isMC bool // an MC node's router (Config.MCNodes), for diagnostics
	nvc  int  // Config.VCs

	in  []inputPort
	out []outputPort
	vcs []inputVC // port*nvc + vc
	// outVCs is every output's downstream-VC state, and creditIn the
	// credits returned to it this cycle, applied at the start of the next;
	// both at o*nvc + v. creditDirty[o] flags output o's non-zero creditIn
	// slots.
	outVCs   []outVCState
	creditIn []int32

	// staged holds the flits in flight toward this router's input buffers,
	// in staging order. Each (port, VC) buffer has a single producer (one
	// upstream output, or the NI), so one list preserves every buffer's
	// arrival order.
	staged      []stagedFlit
	creditDirty [numOutPorts]uint32

	// Router-level activity masks, so RC, SA and credit application visit
	// only the ports and outputs with work: rcPorts has bit p set while
	// input port p has an idle VC holding a head flit, bidPorts while port p
	// has an active VC holding a flit, and creditOuts bit o while
	// creditDirty[o] is non-zero. Config.Validate bounds the input ports to
	// 32. Each is maintained where its predicate changes (push, RC, VA grant,
	// traversal, returnCredit) and CheckInvariants asserts it equals a
	// recount.
	rcPorts, bidPorts uint32
	creditOuts        uint8

	// Switch: SA stage 1 picks one VC per switch-port, stage 2 grants one
	// switch-port per output; outNext[o] is output o's round-robin pointer
	// over switch-port indices.
	sps []switchPort
	// spStart[p] is the index of input port p's first switch-port; its
	// switch-ports are sps[spStart[p]:spStart[p+1]].
	spStart   []int32
	outNext   [numOutPorts]int32
	prioArbOn bool

	// The router's flit-count activity predicate lives in the network's
	// routerFlits array — addFlits/flitCount below.
	//
	// waitVCs counts input VCs in vcWaitVC (the popcount of the port
	// masks): VA's O(1) early-out; SA's is bidPorts.
	waitVCs int32
	// vaRetry is set by every event that can turn a failed VC allocation
	// into a grant — a new waiter (RC), a re-route, a free downstream VC
	// offering enough credits — and cleared by each VA pass. A grant only
	// ever removes options from the other waiters, so while it is clear
	// every waiter would fail exactly as it did last pass and VA skips the
	// pass. A free VC is grantable once its credits reach the packet's size,
	// and its credits only grow until it is granted. So vaLevel[o] keeps the
	// highest credit count offered on a free VC of output o since the last
	// pass (credits landing on a free VC, or a tail freeing one with credits
	// left), and vaNeed[o] the smallest need of the waiters the last pass
	// left with o among their candidates (MaxInt32 when none): an offer
	// below it helps no waiter tried before, and a new waiter is fresh, so
	// only an offer reaching it raises vaRetry. Within a pass, a waiter that
	// is not fresh (see inputPort.vaFresh) and has no candidate output
	// offering its need is skipped. CheckInvariants re-derives that no
	// skipped waiter is grantable.
	vaRetry bool
	vaLevel [numOutPorts]int32
	vaNeed  [numOutPorts]int32
	// starveFloor is a lower bound on the waitSince of every non-idle mesh
	// input VC. waitSince only ever moves forward to the current cycle, so
	// the bound stays valid until the guard rescans; while now-starveFloor is
	// within the starvation limit no VC can be starving.
	starveFloor int64
}

// init builds router id out of the network's slabs.
func (r *router) init(net *Network, id int, nc NodeConfig, sl *slabs) {
	cfg := &net.cfg
	vcs := cfg.VCs
	*r = router{
		net:       net,
		id:        id,
		nvc:       vcs,
		prioArbOn: cfg.PriorityLevels >= 2,
		vaNeed:    noNeeds(),
	}

	numIn := NumDirections + nc.Ports()
	speedup := nc.Speedup(vcs)
	r.in = carve(&sl.inPorts, numIn)
	r.vcs = carve(&sl.inVCs, numIn*vcs)
	r.sps = carve(&sl.sps, NumDirections+nc.Ports()*speedup)
	r.spStart = carve(&sl.int32s, numIn+1)
	r.staged = carve(&sl.staged, stagedCap(nc, vcs))[:0]
	r.out = carve(&sl.outPorts, numOutPorts)
	r.outVCs = carve(&sl.outVCs, numOutPorts*vcs)
	r.creditIn = carve(&sl.int32s, numOutPorts*vcs)
	// Mesh output d feeds input port opposite(d) of neighbour nb, whose
	// output opposite(d) feeds input port d here. A port at the mesh edge
	// has no link, so its VCs get no ring.
	for p := range r.in {
		r.in[p].upstream = -1
		if p < NumDirections {
			d := Direction(p)
			nb := cfg.Mesh.Neighbor(id, d)
			r.out[p].dest, r.out[p].destPort = int32(nb), int32(d.opposite())
			if nb >= 0 {
				r.in[p].upstream, r.in[p].upOut = int32(nb), int32(d.opposite())
			}
		}
		for v := 0; v < vcs; v++ {
			vc := inputVC{buf: pktRing{off: -1}, outPort: -1, outVC: -1}
			if p >= NumDirections || r.in[p].upstream >= 0 {
				vc.buf = sl.ring(net.longPkt)
			}
			r.vcs[p*vcs+v] = vc
		}
	}
	r.out[ejectPortIndex].dest = -1
	for o := range r.out {
		r.out[o].free = maskAll(vcs)
	}
	for i := range r.outVCs {
		r.outVCs[i] = outVCState{credits: int32(net.longPkt), ownerPort: -1}
	}
	sp := 0
	for p := range r.in {
		r.spStart[p] = int32(sp)
		s := 1
		if p >= NumDirections {
			s = speedup
		}
		for k := 0; k < s; k++ {
			var mask uint32
			for v := k; v < vcs; v += s {
				mask |= 1 << uint(v)
			}
			r.sps[sp] = switchPort{mask: mask, port: int32(p), next: uint8(k), first: uint8(k), stride: uint8(s)}
			sp++
		}
	}
	r.spStart[numIn] = int32(sp)
}

// stagedCap bounds the flits simultaneously in flight toward one router:
// each mesh link carries one flit per cycle, and an NI supplies at most VCs
// flits per cycle per injection port.
func stagedCap(nc NodeConfig, vcs int) int {
	return NumDirections + nc.Ports()*vcs
}

// flitCount reads the router's activity predicate: flits resident in its
// input-VC buffers plus staged arrivals.
func (r *router) flitCount() int { return int(r.net.routerFlits[r.id]) }

// addFlits adjusts the router's activity predicate.
func (r *router) addFlits(d int) { r.net.routerFlits[r.id] += int32(d) }

// stage puts a flit in flight toward input buffer (port, vc), landing at
// the start of the next cycle.
func (r *router) stage(f flit, port, vc int32) {
	r.staged = append(r.staged, stagedFlit{h: f.h, seq: f.seq, port: uint8(port), vc: uint8(vc)})
	r.addFlits(1)
}

// returnCredit stages one credit for downstream VC v of output o, applied
// by the next applyArrivals.
func (r *router) returnCredit(o, v int32) {
	r.creditIn[int(o)*r.nvc+int(v)]++
	r.creditDirty[o] |= 1 << uint(v)
	r.creditOuts |= 1 << uint(o)
}

// applyArrivals moves the flits staged last cycle into VC buffers and
// applies staged credits (phase 1 of the cycle). A flit landing in an idle
// VC gives RC work at its port, one landing in an active VC gives SA a
// bidder (a waiting VC already holds its head flit).
func (r *router) applyArrivals() {
	handles, depth := r.net.handles, r.net.longPkt
	for i := range r.staged {
		sf := &r.staged[i]
		vc := &r.vcs[int(sf.port)*r.nvc+int(sf.vc)]
		vc.buf.push(handles, depth, flit{h: sf.h, seq: sf.seq})
		r.in[sf.port].nonEmpty |= 1 << uint(sf.vc)
		switch vc.state {
		case vcIdle:
			r.rcPorts |= 1 << uint(sf.port)
		case vcActive:
			r.bidPorts |= 1 << uint(sf.port)
		}
	}
	r.staged = r.staged[:0]
	for outs := r.creditOuts; outs != 0; outs &= outs - 1 {
		o := bits.TrailingZeros8(outs)
		m := r.creditDirty[o]
		r.creditDirty[o] = 0
		free := r.out[o].free
		for ; m != 0; m &= m - 1 {
			v := bits.TrailingZeros32(m)
			i := o*r.nvc + v
			r.outVCs[i].credits += r.creditIn[i]
			r.creditIn[i] = 0
			if free&(1<<uint(v)) != 0 {
				// Credits on a free VC may turn a failed allocation into a
				// grant; an owned VC was granted with room for its whole
				// packet.
				r.offer(o, r.outVCs[i].credits)
			}
		}
	}
	r.creditOuts = 0
}

// noNeeds is vaNeed with no waiter left on any output.
func noNeeds() (n [numOutPorts]int32) {
	for o := range n {
		n[o] = math.MaxInt32
	}
	return n
}

// offer records that a free downstream VC of output o holds credits: a
// waiter needing at most that many may now be grantable there.
func (r *router) offer(o int, credits int32) {
	if credits > r.vaLevel[o] {
		r.vaLevel[o] = credits
		if credits >= r.vaNeed[o] {
			r.vaRetry = true
		}
	}
}

// offered reports whether a candidate output of waiter vc has been offered
// its need since the last VA pass.
func (r *router) offered(vc *inputVC) bool {
	for _, c := range vc.cands[:vc.nCands] {
		if r.vaLevel[c.port] >= int32(vc.need) {
			return true
		}
	}
	return false
}

// cycle runs the router's RC, VA and SA/ST stages back to back. Fusing them
// per router (instead of three network-wide passes) is order-safe because
// every cross-router write a stage makes — a staged flit, a staged credit,
// an outbox entry — only becomes readable at the next cycle's
// applyArrivals, which has already run for every router of this cycle; the
// stages of different routers therefore commute. RC runs only when a port
// has a head flit to route, and VA only when a waiter may have become
// grantable (vaRetry).
func (r *router) cycle(now int64) {
	if r.rcPorts != 0 {
		r.routeCompute(now)
	}
	if r.waitVCs > 0 && r.vaRetry {
		r.vaNeed = noNeeds()
		r.vcAllocatePass(now)
		r.vaRetry = false
		r.vaLevel = [numOutPorts]int32{}
	}
	r.switchAllocate(now)
}

// routeCompute runs RC for every idle VC with a buffered head flit, at the
// ports rcPorts names: it computes the admissible candidates, captures the
// arrival priority, and performs the per-hop priority decrement (§5).
func (r *router) routeCompute(now int64) {
	for pm := r.rcPorts; pm != 0; pm &= pm - 1 {
		p := bits.TrailingZeros32(pm)
		ip := &r.in[p]
		for m := ip.nonEmpty &^ (ip.waitVC | ip.active); m != 0; m &= m - 1 {
			v := bits.TrailingZeros32(m)
			vc := &r.vcs[p*r.nvc+v]
			f := vc.buf.front(r.net.handles)
			if !f.isHead() {
				panic("noc: non-head flit at front of idle VC")
			}
			pkt := r.net.pkts.of(f.h)
			vc.nCands = uint8(len(computeRoute(r.net.cfg.Mesh, r.net.cfg.Routing, r.id, pkt.Dst, vc.cands[:0])))
			vc.effPrio = int16(pkt.Priority)
			vc.need = uint16(pkt.Size)
			if pkt.Priority > 0 {
				pkt.Priority--
			}
			vc.state = vcWaitVC
			ip.waitVC |= 1 << uint(v)
			ip.vaFresh |= 1 << uint(v)
			r.waitVCs++
			r.vaRetry = true
			vc.waitSince = now
		}
	}
	r.rcPorts = 0
}

// vcAllocatePass runs separable input-first VC allocation: every waiting VC
// claims a free downstream VC among its route candidates, in rotating order
// for fairness. The rotation pointer advances one VC per cycle whether or
// not anything allocates, so at cycle now it is VC now mod (ports × VCs) of
// the router's flat VC order: a pass takes the pointer port's waiters at or
// above the pointer VC, the other ports' in cyclic order, then the pointer
// port's below it. No new waiter can appear mid-pass and a grant only clears
// the winner's own bit, so reading each port's mask once is exact; a port
// with no waiter is not visited.
func (r *router) vcAllocatePass(now int64) {
	rr := int(now % int64(len(r.vcs)))
	rrPort, low := rr/r.nvc, uint32(1)<<uint(rr%r.nvc)-1
	if m := r.in[rrPort].waitVC &^ low; m != 0 {
		r.vcAllocatePort(rrPort, m)
	}
	for p := rrPort + 1; p < len(r.in); p++ {
		if m := r.in[p].waitVC; m != 0 {
			r.vcAllocatePort(p, m)
		}
	}
	for p := 0; p < rrPort; p++ {
		if m := r.in[p].waitVC; m != 0 {
			r.vcAllocatePort(p, m)
		}
	}
	if m := r.in[rrPort].waitVC & low; m != 0 {
		r.vcAllocatePort(rrPort, m)
	}
}

// vcAllocatePort attempts allocation for the waiting VCs m of input port p,
// ascending. A waiter tried before (not fresh) whose candidate outputs have
// not been offered its need since is skipped: it failed then, and the grants
// in between only removed options, so it would fail again. A waiter left
// waiting counts its need into its candidates' vaNeed.
func (r *router) vcAllocatePort(p int, m uint32) {
	ip := &r.in[p]
	fresh := ip.vaFresh
	ip.vaFresh &^= m
	for ; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		vc := &r.vcs[p*r.nvc+v]
		bestPort, bestVC := -1, -1
		if fresh&(1<<uint(v)) != 0 || r.offered(vc) {
			bestPort, bestVC = r.pickOutVC(vc)
		}
		if bestPort < 0 {
			for _, c := range vc.cands[:vc.nCands] {
				r.vaNeed[c.port] = min(r.vaNeed[c.port], int32(vc.need))
			}
			continue
		}
		ov := r.outVC(bestPort, bestVC)
		ov.ownerPort, ov.ownerVC = int16(p), int16(v)
		r.out[bestPort].free &^= 1 << uint(bestVC)
		vc.outPort, vc.outVC = int8(bestPort), int8(bestVC)
		vc.state = vcActive
		bit := uint32(1) << uint(v)
		ip.waitVC &^= bit
		ip.active |= bit
		r.bidPorts |= 1 << uint(p)
		r.waitVCs--
		r.net.vaGrants++
	}
}

// pickOutVC chooses the downstream VC a waiting VC would be granted now, or
// -1, -1: over its candidates in order and downstream VCs descending, the
// first strict maximum of downstream credits among the eligible VCs (local
// congestion awareness; scanning VCs downward makes ties prefer adaptive VCs
// over the escape VC). A candidate's admissible VCs follow from its
// position (candidateMask). Allocation is non-atomic (WPF [28], enabled for both
// routings in §6.2): a free VC is eligible once it has credits for the whole
// packet, so every flit of a granted packet has a slot waiting downstream.
func (r *router) pickOutVC(vc *inputVC) (bestPort, bestVC int) {
	bestPort, bestVC = -1, -1
	need, bestCredits := int32(vc.need), int32(-1)
	for i, cand := range vc.cands[:vc.nCands] {
		op := &r.out[cand.port]
		f := candidateMask(i, r.nvc) & op.free
		if f == 0 || (int(cand.port) != ejectPortIndex && op.dest < 0) {
			continue // nothing free, or mesh edge: no link in that direction
		}
		base := int(cand.port) * r.nvc
		for f != 0 {
			ov := 31 - bits.LeadingZeros32(f)
			f &^= 1 << uint(ov)
			if c := r.outVCs[base+ov].credits; c >= need && c > bestCredits {
				bestPort, bestVC, bestCredits = int(cand.port), ov, c
			}
		}
	}
	return bestPort, bestVC
}

// starvationActive reports whether any non-injection input VC has been
// waiting longer than the starvation threshold, in which case injection
// priority is suppressed this cycle (§5).
func (r *router) starvationActive(now int64) bool {
	limit := r.net.cfg.StarvationLimit
	if now-r.starveFloor <= limit {
		return false
	}
	oldest := now
	for p := 0; p < NumDirections; p++ {
		for m := r.in[p].waitVC | r.in[p].active; m != 0; m &= m - 1 {
			oldest = min(oldest, r.vcs[p*r.nvc+bits.TrailingZeros32(m)].waitSince)
		}
	}
	r.starveFloor = oldest
	return now-oldest > limit
}

// switchAllocate runs separable input-first switch allocation and performs
// the winning switch/link traversals (SA + ST + LT), in output order.
func (r *router) switchAllocate(now int64) {
	if r.bidPorts == 0 {
		// No active input VC holds a flit, so no switch-port can bid and no
		// output can grant.
		return
	}
	var won [numOutPorts]saGrant
	for m := r.arbitrate(now, &won); m != 0; m &= m - 1 {
		o := bits.TrailingZeros8(m)
		r.traverse(int(r.sps[won[o].sp].port), int(won[o].vc), o, now)
	}
}

// arbitrate is SA with stage 2 folded into stage 1's scan. Each switch-port
// of a bidding port (bidPorts) picks among its member VCs that are active and
// hold a flit; the winner requests its output with the priority it carried on
// arrival when ARI prioritisation is enabled (injection VCs forced to 0 while
// the starvation guard is active), and the output's running winner
// (saGrant.offer) takes it or keeps its own. A switch-port of a port outside
// bidPorts has no bidder, and stage 2 keeps the maximum of (priority, rank)
// with every rank distinct, so skipping those ports leaves every winner as
// the full scan picks it. Every arbiter pointer moves as the two separate
// stages moved it; won (zero on entry) receives each output's winner, and the
// returned mask has bit o set for each output that has one.
func (r *router) arbitrate(now int64, won *[numOutPorts]saGrant) (wonOuts uint8) {
	starved := r.prioArbOn && r.starvationActive(now)
	nSP := int32(len(r.sps))
	for pm := r.bidPorts; pm != 0; pm &= pm - 1 {
		p := bits.TrailingZeros32(pm)
		ip := &r.in[p]
		ready := ip.active & ip.nonEmpty
		for i := r.spStart[p]; i < r.spStart[p+1]; i++ {
			sp := &r.sps[i]
			bidding := ready & sp.mask
			if bidding == 0 {
				continue
			}
			v := sp.pick(bidding, r.nvc)
			vc := &r.vcs[p*r.nvc+v]
			o := vc.outPort
			prio := 0
			if r.prioArbOn && !(starved && p >= NumDirections) {
				prio = int(vc.effPrio)
			}
			rot := i - r.outNext[o] // distance from the pointer in scan order
			if rot < 0 {
				rot += nSP
			}
			won[o].offer(i, int32(v), nSP-rot, prio)
			wonOuts |= 1 << uint(o)
		}
	}
	for m := wonOuts; m != 0; m &= m - 1 {
		o := bits.TrailingZeros8(m)
		if r.outNext[o] = won[o].sp + 1; r.outNext[o] == nSP {
			r.outNext[o] = 0
		}
	}
	return wonOuts
}

// pick is SA stage 1 for one switch-port: among the bidding member VCs (at
// least one) it grants the first round-robin from the pointer, and advances
// the pointer to the member after the winner. Every bidder can send: VA
// granted its downstream VC with room for the whole packet.
func (sp *switchPort) pick(bidding uint32, nvc int) int {
	// Rotating right by the pointer puts the member scanned first at bit 0
	// and keeps the cyclic member order (every member bit is below nvc <= 32).
	v := (int(sp.next) + bits.TrailingZeros32(bits.RotateLeft32(bidding, -int(sp.next)))) & 31
	if sp.next = uint8(v) + sp.stride; int(sp.next) >= nvc {
		sp.next = sp.first
	}
	return v
}

// traverse moves one flit from input VC (p, v) across the crossbar onto
// output o's link, returns a credit upstream, and retires the downstream-VC
// ownership at the tail.
func (r *router) traverse(p, v, o int, now int64) {
	net := r.net
	ip := &r.in[p]
	vc := &r.vcs[p*r.nvc+v]
	op := &r.out[o]
	bit := uint32(1) << uint(v)
	outVC := int32(vc.outVC)

	f, tail := vc.buf.pop(net.handles, net.longPkt, int(vc.need))
	if vc.buf.empty() {
		ip.nonEmpty &^= bit
	}
	net.routerFlits[r.id]--
	ov := r.outVC(o, int(outVC))
	ov.credits--
	op.flits++
	net.stats.SwitchTraversals++

	// A flit sent at cycle t lands in the downstream buffer at t+1
	// (single-cycle router + 1-cycle link).
	switch {
	case o == ejectPortIndex:
		if f.isHead() {
			net.pkts.of(f.h).ArrivedAt = now
		}
		e := &net.ejectors[r.id]
		e.arrivals = append(e.arrivals, stagedFlit{h: f.h, seq: f.seq, vc: uint8(outVC)})
		e.addFlits(1)
	case op.dest >= 0:
		net.routers[op.dest].stage(f, op.destPort, outVC)
		net.markBusy(int(op.dest))
		net.stats.MeshLinkFlits++
	default:
		panic("noc: output port with no destination")
	}

	// Credit for the freed input-buffer slot.
	if p >= NumDirections {
		net.nis[r.id].creditReturn(p-NumDirections, v)
	} else {
		net.routers[ip.upstream].returnCredit(ip.upOut, int32(v))
	}

	vc.waitSince = now
	if tail {
		ov.ownerPort = -1
		op.free |= 1 << uint(outVC)
		r.offer(o, ov.credits)
		vc.state = vcIdle
		vc.outPort, vc.outVC = -1, -1
		ip.active &^= bit
		if ip.nonEmpty&bit != 0 {
			r.rcPorts |= 1 << uint(p) // the next packet's head is behind the tail
		}
	}
	if ip.active&ip.nonEmpty == 0 {
		r.bidPorts &^= 1 << uint(p)
	}
}
