package noc

import "math/bits"

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
	buf flitQueue // ring carved from the network's flit slab
	// waitSince is when the head flit last became eligible without being
	// served; it drives the starvation guard.
	waitSince int64
	// cands[:nCands] are the admissible outputs computed by RC; candOuts
	// has bit o set for each candidate's output port o (VA's dirty filter).
	cands [2]routeCandidate
	// effPrio is the packet priority captured at route computation, before
	// the per-hop decrement (§5): the value the packet carried on arrival
	// (Config.Validate bounds it to int16).
	effPrio  int16
	nCands   uint8
	candOuts uint8
	state    vcState
	// outPort/outVC name the downstream VC held while active, -1 otherwise.
	outPort int8
	outVC   int8
}

// stagedFlit is a flit in flight on a link, delivered into buffer (port,
// vc) of its target at the start of the next cycle. Ejectors have a single
// port and leave port zero.
type stagedFlit struct {
	f    flit
	port int32
	vc   int32
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
//	vaFresh   waiting, and not yet tried by VA since RC or a re-route
//
// Every mask is maintained at the single place its predicate changes (push,
// pop, RC, VA grant, traversal) and CheckInvariants asserts each one equals
// a recount.
type inputPort struct {
	nonEmpty, waitVC, active, vaFresh uint32

	// frozenUntil is the fault-injection freeze horizon: while now is before
	// it, no VC of this port may bid for the switch. Buffered flits (and
	// their credits) are untouched, so the stall is absorbed losslessly by
	// the credit flow control (see internal/fault).
	frozenUntil int64

	// upstream/upOut name the neighbouring router's output port feeding this
	// port (nil for injection ports, whose credits return to the NI).
	upstream *router
	upOut    int32
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
// local ejection port.
type outputPort struct {
	vcs []outVCState
	// creditIn stages credits returned by the downstream consumer this
	// cycle, applied at the start of the next cycle; the owning router's
	// creditDirty mask flags the non-zero slots.
	creditIn []int32
	// free has bit v set while downstream VC v has no owner (VA's candidate
	// filter).
	free uint32

	// Exactly one of dest (mesh; destPort is the neighbour's input port) or
	// eject (local) is non-nil, except at a mesh edge where both are.
	dest     *router
	destPort int32
	eject    *ejector

	// flits counts traversals onto this output's link (observability).
	flits uint64

	// stalledUntil is the fault-injection link-stall horizon: while now is
	// before it, switch allocation never grants this output, so no flit
	// traverses the link. Credits and buffered flits are untouched.
	stalledUntil int64
	// corruptUntil is the fault-injection corruption horizon: flits
	// traversing the link while now is before it are marked bad (payload
	// bit-flips detected by the receiving NI's CRC check; see recovery.go).
	corruptUntil int64
	// dead marks a permanently killed mesh link (KillLink): route
	// computation never offers it again. Worms that held it at death drain
	// gracefully.
	dead bool
}

// owner returns the flat index (port*VCs + vc) of the input VC holding
// downstream VC v, or -1.
func (op *outputPort) owner(v, vcs int) int {
	ov := &op.vcs[v]
	if ov.ownerPort < 0 {
		return -1
	}
	return int(ov.ownerPort)*vcs + int(ov.ownerVC)
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
	isMC bool // tagged by the caller for stats / scheme logic
	nvc  int  // Config.VCs

	in  []inputPort
	out []outputPort
	vcs []inputVC // port*nvc + vc

	// staged holds the flits in flight toward this router's input buffers,
	// in staging order. Each (port, VC) buffer has a single producer (one
	// upstream output, or the NI), so one list preserves every buffer's
	// arrival order.
	staged []stagedFlit
	// creditDirty[o] flags the non-zero slots of out[o].creditIn.
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
	// into a grant — a new waiter (RC), credits landing on a free downstream
	// VC, a tail freeing one, a re-route — and cleared by each VA pass. A
	// grant only ever removes options from the other waiters, so while it is
	// clear every waiter would fail exactly as it did last pass and VA skips
	// the pass. Within a pass the same argument runs per waiter: vaDirty has
	// bit o set when output o gained an option (a freed VC, or credits on a
	// free VC) since the last pass, and a waiter that is not fresh (see
	// inputPort.vaFresh) and has no candidate output in vaDirty is skipped.
	// CheckInvariants re-derives that no skipped waiter is grantable.
	vaRetry bool
	vaDirty uint8
	// starveFloor is a lower bound on the waitSince of every non-idle mesh
	// input VC. waitSince only ever moves forward to the current cycle, so
	// the bound stays valid until the guard rescans; while now-starveFloor is
	// within the starvation limit no VC can be starving.
	starveFloor int64

	// VA scans waiting VCs in rotating order from (rrPort, rrVC). The
	// pointer advances one VC per simulated cycle whether or not anything
	// allocates; lastVA is the cycle vcAllocate last ran, so the rotation of
	// cycles the router slept through is fast-forwarded on wake-up.
	rrPort, rrVC int
	lastVA       int64

	// reroute is set on every router by a link kill (the fault-routing table
	// is global): VCs already waiting on a computed route recompute their
	// candidates at the next RC.
	reroute bool
}

// init builds router id out of the network's slabs.
func (r *router) init(net *Network, id int, sl *slabs) {
	cfg := &net.cfg
	nc := cfg.node(id)
	vcs := cfg.VCs
	*r = router{
		net:       net,
		id:        id,
		nvc:       vcs,
		prioArbOn: cfg.PriorityLevels >= 2,
		lastVA:    -1,
	}

	numIn := NumDirections + nc.injPorts()
	speedup := nc.injSpeedup(vcs)
	r.in = carve(&sl.inPorts, numIn)
	r.vcs = carve(&sl.inVCs, numIn*vcs)
	r.sps = carve(&sl.sps, NumDirections+nc.injPorts()*speedup)
	r.spStart = carve(&sl.int32s, numIn+1)
	r.staged = carve(&sl.staged, stagedCap(nc, vcs))[:0]
	for i := range r.vcs {
		r.vcs[i] = inputVC{buf: flitQueue{buf: carve(&sl.flits, net.longPkt)}, outPort: -1, outVC: -1}
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

	r.out = carve(&sl.outPorts, numOutPorts)
	for o := range r.out {
		op := &r.out[o]
		op.vcs = carve(&sl.outVCs, vcs)
		op.creditIn = carve(&sl.int32s, vcs)
		op.free = maskAll(vcs)
		for v := range op.vcs {
			op.vcs[v] = outVCState{credits: int32(net.longPkt), ownerPort: -1}
		}
	}
}

// stagedCap bounds the flits simultaneously in flight toward one router:
// each mesh link carries one flit per cycle, and an NI supplies at most VCs
// flits per cycle per injection port.
func stagedCap(nc NodeConfig, vcs int) int {
	return NumDirections + nc.injPorts()*vcs
}

// flitCount reads the router's activity predicate: flits resident in its
// input-VC buffers plus staged arrivals.
func (r *router) flitCount() int { return int(r.net.routerFlits[r.id]) }

// addFlits adjusts the router's activity predicate.
func (r *router) addFlits(d int) { r.net.routerFlits[r.id] += int32(d) }

// stage puts a flit in flight toward input buffer (port, vc), landing at
// the start of the next cycle.
func (r *router) stage(f flit, port, vc int32) {
	r.staged = append(r.staged, stagedFlit{f: f, port: port, vc: vc})
	r.addFlits(1)
}

// returnCredit stages one credit for downstream VC v of output o, applied
// by the next applyArrivals.
func (r *router) returnCredit(o, v int32) {
	r.out[o].creditIn[v]++
	r.creditDirty[o] |= 1 << uint(v)
	r.creditOuts |= 1 << uint(o)
}

// applyArrivals moves the flits staged last cycle into VC buffers and
// applies staged credits (phase 1 of the cycle). A flit landing in an idle
// VC gives RC work at its port, one landing in an active VC gives SA a
// bidder (a waiting VC already holds its head flit).
func (r *router) applyArrivals() {
	for i := range r.staged {
		sf := &r.staged[i]
		vc := &r.vcs[int(sf.port)*r.nvc+int(sf.vc)]
		vc.buf.push(sf.f)
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
		op := &r.out[o]
		if m&op.free != 0 {
			// Credits on a free VC may turn a failed allocation into a grant;
			// an owned VC was granted with room for its whole packet.
			r.vaDirty |= 1 << uint(o)
			r.vaRetry = true
		}
		for ; m != 0; m &= m - 1 {
			v := bits.TrailingZeros32(m)
			op.vcs[v].credits += op.creditIn[v]
			op.creditIn[v] = 0
		}
	}
	r.creditOuts = 0
}

// cycle runs the router's RC, VA and SA/ST stages back to back. Fusing them
// per router (instead of three network-wide passes) is order-safe because
// every cross-router write a stage makes — a staged flit, a staged credit,
// an outbox entry — only becomes readable at the next cycle's
// applyArrivals, which has already run for every router of this cycle; the
// stages of different routers therefore commute.
func (r *router) cycle(now int64) {
	r.routeCompute(now)
	r.vcAllocate(now)
	r.switchAllocate(now)
}

// routeCompute runs RC for every idle VC with a buffered head flit, at the
// ports rcPorts names: it computes the admissible candidates, captures the
// arrival priority, and performs the per-hop priority decrement (§5). After
// a link death, VCs still waiting for a downstream VC recompute their
// candidates — without re-applying the priority decrement, which is per
// hop, not per recomputation.
func (r *router) routeCompute(now int64) {
	for pm := r.rcPorts; pm != 0; pm &= pm - 1 {
		p := bits.TrailingZeros32(pm)
		ip := &r.in[p]
		for m := ip.nonEmpty &^ (ip.waitVC | ip.active); m != 0; m &= m - 1 {
			v := bits.TrailingZeros32(m)
			vc := &r.vcs[p*r.nvc+v]
			f := vc.buf.front()
			if !f.isHead() {
				panic("noc: non-head flit at front of idle VC")
			}
			pkt := r.net.pkts.of(f)
			r.setCandidates(vc, pkt.Dst)
			vc.effPrio = int16(pkt.Priority)
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
	if r.reroute {
		r.reroute = false
		r.vaRetry = true
		for p := range r.in {
			ip := &r.in[p]
			ip.vaFresh = ip.waitVC
			for m := ip.waitVC; m != 0; m &= m - 1 {
				vc := &r.vcs[p*r.nvc+bits.TrailingZeros32(m)]
				r.setCandidates(vc, r.net.pkts.of(vc.buf.front()).Dst)
			}
		}
	}
}

func (r *router) setCandidates(vc *inputVC, dst int) {
	vc.nCands = uint8(len(r.net.routeCandidates(r.id, dst, vc.cands[:0])))
	vc.candOuts = 0
	for _, c := range vc.cands[:vc.nCands] {
		vc.candOuts |= 1 << uint(c.port)
	}
}

// vcAllocate runs separable input-first VC allocation: waiting VCs claim a
// free downstream VC among their route candidates, scanned in rotating
// order for fairness.
//
// The rotating pointer advances once per simulated cycle whether or not
// anything allocates, so a router skipped by event-driven stepping first
// fast-forwards the rotations of the cycles it slept through; the pointer
// is then exactly what visiting the router every cycle would leave.
func (r *router) vcAllocate(now int64) {
	if skipped := now - 1 - r.lastVA; skipped > 0 {
		n := len(r.vcs)
		rr := (r.rrPort*r.nvc + r.rrVC + int(skipped%int64(n))) % n
		r.rrPort, r.rrVC = rr/r.nvc, rr%r.nvc
	}
	if r.waitVCs > 0 && r.vaRetry {
		r.vcAllocatePass(now)
		r.vaRetry = false
		r.vaDirty = 0
	}
	if r.rrVC++; r.rrVC == r.nvc {
		r.rrVC = 0
		if r.rrPort++; r.rrPort == len(r.in) {
			r.rrPort = 0
		}
	}
	r.lastVA = now
}

// vcAllocatePass attempts allocation for every waiting VC in rotation order
// from (rrPort, rrVC): the pointer port's VCs at or above rrVC, the other
// ports in cyclic order, then the pointer port's VCs below rrVC. No new
// waiter can appear mid-pass and a grant only clears the winner's own bit,
// so reading each port's mask once is exact.
func (r *router) vcAllocatePass(now int64) {
	low := uint32(1)<<uint(r.rrVC) - 1
	r.vcAllocatePort(r.rrPort, r.in[r.rrPort].waitVC&^low, now)
	for p := r.rrPort + 1; p < len(r.in); p++ {
		r.vcAllocatePort(p, r.in[p].waitVC, now)
	}
	for p := 0; p < r.rrPort; p++ {
		r.vcAllocatePort(p, r.in[p].waitVC, now)
	}
	r.vcAllocatePort(r.rrPort, r.in[r.rrPort].waitVC&low, now)
}

// vcAllocatePort attempts allocation for the waiting VCs m of input port p,
// ascending. A waiter tried before (not fresh) whose candidate outputs have
// gained no option since is skipped: it failed then, and the grants in
// between only removed options, so it would fail again.
func (r *router) vcAllocatePort(p int, m uint32, now int64) {
	ip := &r.in[p]
	fresh := ip.vaFresh
	ip.vaFresh &^= m
	for ; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		vc := &r.vcs[p*r.nvc+v]
		if fresh&(1<<uint(v)) == 0 && vc.candOuts&r.vaDirty == 0 {
			continue
		}
		bestPort, bestVC := r.pickOutVC(vc)
		if bestPort < 0 {
			continue
		}
		op := &r.out[bestPort]
		op.vcs[bestVC].ownerPort, op.vcs[bestVC].ownerVC = int16(p), int16(v)
		op.free &^= 1 << uint(bestVC)
		vc.outPort, vc.outVC = int8(bestPort), int8(bestVC)
		vc.state = vcActive
		bit := uint32(1) << uint(v)
		ip.waitVC &^= bit
		ip.active |= bit
		r.bidPorts |= 1 << uint(p)
		r.waitVCs--
		r.net.vaGrants++
		if r.net.tracer != nil {
			r.net.trace(r.net.pkts.of(vc.buf.front()), r.id, TraceVAGrant, now)
		}
	}
}

// pickOutVC chooses the downstream VC a waiting VC would be granted now, or
// -1, -1: over its candidates in order and downstream VCs descending, the
// first strict maximum of downstream credits among the eligible VCs (local
// congestion awareness; scanning VCs downward makes ties prefer adaptive VCs
// over the escape VC). Allocation is non-atomic (WPF [28], enabled for both
// routings in §6.2): a free VC is eligible once it has credits for the whole
// packet, so every flit of a granted packet has a slot waiting downstream.
func (r *router) pickOutVC(vc *inputVC) (bestPort, bestVC int) {
	bestPort, bestVC = -1, -1
	var need int32 // set once a candidate has a free VC
	bestCredits := int32(-1)
	for _, cand := range vc.cands[:vc.nCands] {
		op := &r.out[cand.port]
		f := cand.vcMask & op.free
		if f == 0 || (int(cand.port) != ejectPortIndex && op.dest == nil) {
			continue // nothing free, or mesh edge: no link in that direction
		}
		if need == 0 {
			need = int32(r.net.pkts.of(vc.buf.front()).Size)
		}
		for f != 0 {
			ov := 31 - bits.LeadingZeros32(f)
			f &^= 1 << uint(ov)
			if c := op.vcs[ov].credits; c >= need && c > bestCredits {
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
// of a bidding port (bidPorts) not frozen by fault injection picks among its
// member VCs that are active and hold a flit; the winner requests its output
// with the priority it carried on arrival when ARI prioritisation is enabled
// (injection VCs forced to 0 while the starvation guard is active), and the
// output's running winner (saGrant.offer) takes it or keeps its own. A
// switch-port of a port outside bidPorts has no bidder, and stage 2 keeps
// the maximum of (priority, rank) with every rank distinct, so skipping
// those ports leaves every winner as the full scan picks it. An output
// stalled by fault injection grants nobody, so requests toward it are
// dropped. Every arbiter pointer moves as the two separate stages moved it;
// won (zero on entry) receives each output's winner, and the returned mask
// has bit o set for each output that has one.
func (r *router) arbitrate(now int64, won *[numOutPorts]saGrant) (wonOuts uint8) {
	starved := r.prioArbOn && r.starvationActive(now)
	faulted := r.net.faulted
	nSP := int32(len(r.sps))
	for pm := r.bidPorts; pm != 0; pm &= pm - 1 {
		p := bits.TrailingZeros32(pm)
		ip := &r.in[p]
		if faulted && now < ip.frozenUntil {
			continue
		}
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
			if faulted && now < r.out[o].stalledUntil {
				continue
			}
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
	ip := &r.in[p]
	vc := &r.vcs[p*r.nvc+v]
	op := &r.out[o]
	bit := uint32(1) << uint(v)

	f := vc.buf.pop()
	if vc.buf.empty() {
		ip.nonEmpty &^= bit
	}
	r.addFlits(-1)
	ov := &op.vcs[vc.outVC]
	ov.credits--
	op.flits++
	r.net.stats.SwitchTraversals++
	if r.net.faulted && now < op.corruptUntil {
		// The link is inside a corruption window: the flit's payload is
		// damaged in transit. Only the receiving NI's CRC check observes it.
		f.bits |= flitBad
		r.net.recovery.CorruptFlits++
	}
	if r.net.tracer != nil && f.isHead() {
		r.net.trace(r.net.pkts.of(f), r.id, TraceSwitch, now)
	}

	// A flit sent at cycle t lands in the downstream buffer at t+1
	// (single-cycle router + 1-cycle link).
	switch {
	case op.dest != nil:
		op.dest.stage(f, op.destPort, int32(vc.outVC))
		r.net.markBusy(op.dest.id)
		r.net.stats.MeshLinkFlits++
	case op.eject != nil:
		op.eject.arrivals = append(op.eject.arrivals, stagedFlit{f: f, vc: int32(vc.outVC)})
		op.eject.addFlits(1)
	default:
		panic("noc: output port with no destination")
	}

	// Credit for the freed input-buffer slot.
	if p >= NumDirections {
		r.net.nis[r.id].creditReturn(p-NumDirections, v)
	} else {
		ip.upstream.returnCredit(ip.upOut, int32(v))
	}

	vc.waitSince = now
	if f.isTail() {
		ov.ownerPort = -1
		op.free |= 1 << uint(vc.outVC)
		r.vaDirty |= 1 << uint(o)
		r.vaRetry = true
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
