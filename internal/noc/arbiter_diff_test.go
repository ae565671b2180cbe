package noc

import (
	"testing"

	"repro/internal/rng"
)

// The mask allocators of the router and the ejector are checked against the
// closure-driven roundRobin arbiter they replaced, driven the way the
// scan-based code drove it: same winners, same pointers, over seeded random
// states.

// roundRobin is a rotating-priority arbiter over n requesters. Grant order
// starts at the slot after the previous winner, so every requester is at
// most n-1 grants from the front (strong fairness).
type roundRobin struct {
	n    int
	next int
}

// pick returns the first index i (scanning next, next+1, ... mod n) for
// which req(i) is true, advancing the pointer past the winner. It returns
// -1 when nothing is requesting.
func (a *roundRobin) pick(req func(i int) bool) int {
	for k := 0; k < a.n; k++ {
		i := (a.next + k) % a.n
		if req(i) {
			a.next = (i + 1) % a.n
			return i
		}
	}
	return -1
}

// pickPriority is pick with an integer priority: among requesters it grants
// the highest prio(i); ties break round-robin from the rotating pointer.
// It is the reference for the ARI priority-aware output stage of switch
// allocation (§5), which grantOutputs implements.
func (a *roundRobin) pickPriority(req func(i int) bool, prio func(i int) int) int {
	best := -1
	bestPrio := 0
	for k := 0; k < a.n; k++ {
		i := (a.next + k) % a.n
		if !req(i) {
			continue
		}
		if p := prio(i); best == -1 || p > bestPrio {
			best, bestPrio = i, p
		}
	}
	if best >= 0 {
		a.next = (best + 1) % a.n
	}
	return best
}

// TestSwitchPortPickMatchesRoundRobin is SA stage 1: a switch-port's members
// are VCs first, first+stride, ...; the reference arbitrates over member
// positions. pick is only called with a bidder, so rounds without one are
// skipped.
func TestSwitchPortPickMatchesRoundRobin(t *testing.T) {
	r := rng.New(15)
	for iter := 0; iter < 20000; iter++ {
		nvc := 1 + r.Intn(32)
		stride := 1 + r.Intn(nvc)
		first := r.Intn(stride)
		var members []int
		var mask uint32
		for v := first; v < nvc; v += stride {
			members = append(members, v)
			mask |= 1 << uint(v)
		}
		ref := roundRobin{n: len(members), next: r.Intn(len(members))}
		sp := switchPort{mask: mask, next: uint8(members[ref.next]), first: uint8(first), stride: uint8(stride)}

		// A few rounds on one arbiter pair so pointer state carries over.
		for round := 0; round < 4; round++ {
			bidding := uint32(r.Uint64()) & uint32(r.Uint64()) & mask
			if bidding == 0 {
				continue
			}
			refV := members[ref.pick(func(j int) bool { return bidding&(1<<uint(members[j])) != 0 })]
			if v := sp.pick(bidding, nvc); v != refV || int(sp.next) != members[ref.next] {
				t.Fatalf("iter %d round %d (nvc %d first %d stride %d): mask pick = vc %d, pointer %d; reference vc %d, pointer %d",
					iter, round, nvc, first, stride, v, sp.next, refV, members[ref.next])
			}
		}
	}
}

// TestEjectorPickMatchesRoundRobin is the ejector's drain order: one grant
// per drained flit over the non-empty reassembly VCs.
func TestEjectorPickMatchesRoundRobin(t *testing.T) {
	r := rng.New(19)
	for iter := 0; iter < 20000; iter++ {
		nvc := 1 + r.Intn(32)
		ref := roundRobin{n: nvc, next: r.Intn(nvc)}
		e := ejector{vcs: make([]flitQueue, nvc), next: ref.next}
		for round := 0; round < 6; round++ {
			e.nonEmpty = uint32(r.Uint64()) & maskAll(nvc)
			if r.Intn(8) == 0 {
				e.nonEmpty = 0
			}
			want := ref.pick(func(v int) bool { return e.nonEmpty&(1<<uint(v)) != 0 })
			if got := e.pickVC(); got != want || e.next != ref.next {
				t.Fatalf("iter %d round %d (nvc %d, occupancy %032b): mask pick = vc %d, pointer %d; reference vc %d, pointer %d",
					iter, round, nvc, e.nonEmpty, got, e.next, want, ref.next)
			}
		}
	}
}

// spRequest is one SA stage-1 winner — input VC (port, vc) bidding through
// switch-port sp — as the separate stage 2 saw it: a request for output out
// at priority prio.
type spRequest struct {
	sp, port, vc, out int32
	prio              int
}

// grantOutputs is the separate SA stage 2 the router ran before stage 2
// was folded into stage 1's scan (saGrant.offer): each output port grants,
// among the requests naming it, the highest priority, ties broken
// round-robin over switch-port indices from the output's pointer next[o],
// and moves the pointer past the winner. reqs is in ascending switch-port
// order with at most one request per switch-port; nSP is the router's
// switch-port count. The result maps each output to the index of its
// granted request, or -1.
func grantOutputs(reqs []spRequest, next *[numOutPorts]int32, nSP int) (won [numOutPorts]int32) {
	var wonRot [numOutPorts]int32
	for o := range won {
		won[o] = -1
	}
	for i := range reqs {
		q := &reqs[i]
		o := q.out
		rot := q.sp - next[o] // distance from the pointer in scan order
		if rot < 0 {
			rot += int32(nSP)
		}
		if w := won[o]; w < 0 || q.prio > reqs[w].prio || (q.prio == reqs[w].prio && rot < wonRot[o]) {
			won[o], wonRot[o] = int32(i), rot
		}
	}
	for o, w := range won {
		if w < 0 {
			continue
		}
		if next[o] = reqs[w].sp + 1; int(next[o]) == nSP {
			next[o] = 0
		}
	}
	return won
}

// TestGrantOutputsMatchesRoundRobin is SA stage 2, with and without
// priorities, over more switch-ports than fit a 32-bit word: grantOutputs
// against the rotating arbiter, and the running winner the router keeps
// (saGrant.offer, fed in switch-port order) against grantOutputs.
func TestGrantOutputsMatchesRoundRobin(t *testing.T) {
	r := rng.New(16)
	for iter := 0; iter < 5000; iter++ {
		nSP := 1 + r.Intn(40)
		prioLevels := 1 + r.Intn(4) // 1: every request at priority 0
		var next [numOutPorts]int32
		var ref [numOutPorts]roundRobin
		for o := range ref {
			ref[o] = roundRobin{n: nSP, next: r.Intn(nSP)}
			next[o] = int32(ref[o].next)
		}
		for round := 0; round < 6; round++ {
			var reqs []spRequest
			bySP := make([]int, nSP) // request index + 1
			for sp := 0; sp < nSP; sp++ {
				if r.Intn(3) == 0 {
					continue
				}
				reqs = append(reqs, spRequest{sp: int32(sp), vc: int32(r.Intn(8)), out: int32(r.Intn(numOutPorts)), prio: r.Intn(prioLevels)})
				bySP[sp] = len(reqs)
			}
			var fused [numOutPorts]saGrant
			for _, q := range reqs {
				rot := q.sp - next[q.out]
				if rot < 0 {
					rot += int32(nSP)
				}
				fused[q.out].offer(q.sp, q.vc, int32(nSP)-rot, q.prio)
			}
			won := grantOutputs(reqs, &next, nSP)
			for o := range ref {
				req := func(sp int) bool { return bySP[sp] > 0 && int(reqs[bySP[sp]-1].out) == o }
				var w int
				if prioLevels > 1 {
					w = ref[o].pickPriority(req, func(sp int) int { return reqs[bySP[sp]-1].prio })
				} else {
					w = ref[o].pick(req)
				}
				got, fusedSP := -1, -1
				if won[o] >= 0 {
					got = int(reqs[won[o]].sp)
				}
				if g := fused[o]; g.rank != 0 {
					fusedSP = int(g.sp)
					if q := reqs[bySP[g.sp]-1]; g.vc != q.vc {
						t.Fatalf("iter %d round %d out %d: running winner vc %d, request vc %d", iter, round, o, g.vc, q.vc)
					}
				}
				if got != w || fusedSP != w || int(next[o]) != ref[o].next {
					t.Fatalf("iter %d round %d out %d (nSP %d): granted sp %d, running winner sp %d, pointer %d; reference sp %d pointer %d",
						iter, round, o, nSP, got, fusedSP, next[o], w, ref[o].next)
				}
			}
		}
	}
}

// separableSA is switch allocation as two separate stages, the way the
// router ran it before the fold: stage 1 over copies of the switch-ports
// into a request list (fault horizons read unconditionally, the starvation
// guard recomputed by a full scan), then grantOutputs over a copy of the
// output pointers. It returns each output's winning input VC and the moved
// pointers, touching no router state.
func separableSA(r *router, now int64) (win [numOutPorts][2]int32, sps []switchPort, next [numOutPorts]int32) {
	sps = append([]switchPort(nil), r.sps...)
	next = r.outNext
	starved := false
	if r.prioArbOn {
		for g := 0; g < NumDirections*r.nvc; g++ {
			if vc := &r.vcs[g]; vc.state != vcIdle && now-vc.waitSince > r.net.cfg.StarvationLimit {
				starved = true
			}
		}
	}
	var reqs []spRequest
	for i := range sps {
		sp := &sps[i]
		ip := &r.in[sp.port]
		bidding := ip.active & ip.nonEmpty & sp.mask
		if bidding == 0 || now < ip.frozenUntil {
			continue
		}
		v := sp.pick(bidding, r.nvc)
		vc := &r.vcs[int(sp.port)*r.nvc+v]
		if now < r.out[vc.outPort].stalledUntil {
			continue
		}
		prio := 0
		if r.prioArbOn && !(starved && int(sp.port) >= NumDirections) {
			prio = int(vc.effPrio)
		}
		reqs = append(reqs, spRequest{sp: int32(i), port: sp.port, vc: int32(v), out: int32(vc.outPort), prio: prio})
	}
	for o, i := range grantOutputs(reqs, &next, len(sps)) {
		win[o] = [2]int32{-1, -1}
		if i >= 0 {
			win[o] = [2]int32{reqs[i].port, reqs[i].vc}
		}
	}
	return win, sps, next
}

// TestArbitrateMatchesSeparableStages holds the router's fused switch
// allocation to separableSA over random router states: strided injection
// switch-ports (ARI speedup) and several injection ports (MultiPort), ARI
// priorities with the starvation guard on and off, and fault horizons with
// the network's faulted bit set — same winners, same switch-port and output
// pointers.
func TestArbitrateMatchesSeparableStages(t *testing.T) {
	r := rng.New(21)
	var nets []*Network
	for _, nc := range []NodeConfig{{NI: NISplit, InjSpeedup: 2}, {NI: NISplit, InjSpeedup: 4}, {NI: NIMultiPort, InjPorts: 3}, {}} {
		for _, vcs := range []int{2, 4, 6} {
			for _, prio := range []int{0, 2} {
				cfg := Config{Mesh: Mesh{Width: 3, Height: 3}, VCs: vcs, LinkBits: 128, DataBytes: 128,
					Routing: RouteMinAdaptive, PriorityLevels: prio, StarvationLimit: 20}
				cfg.Nodes = make([]NodeConfig, cfg.Mesh.Nodes())
				cfg.Nodes[4] = nc
				n, err := NewNetwork(cfg)
				if err != nil {
					t.Fatal(err)
				}
				nets = append(nets, n)
			}
		}
	}
	starvedSeen, faultDropped := 0, 0
	for iter := 0; iter < 20000; iter++ {
		n := nets[r.Intn(len(nets))]
		rt := &n.routers[4] // centre: every mesh output has a link
		const now = 1000
		n.faulted = r.Intn(3) == 0
		span := 15 + r.Intn(16) // waits beyond the limit of 20 in some states only
		for p := range rt.in {
			ip := &rt.in[p]
			ip.waitVC, ip.active, ip.nonEmpty, ip.frozenUntil = 0, 0, 0, 0
			if n.faulted && r.Intn(4) == 0 {
				ip.frozenUntil = now - 2 + int64(r.Intn(5))
			}
			for v := 0; v < rt.nvc; v++ {
				vc := &rt.vcs[p*rt.nvc+v]
				bit := uint32(1) << uint(v)
				vc.state = vcState(r.Intn(3))
				vc.waitSince = now - int64(r.Intn(span))
				vc.effPrio = int16(r.Intn(2))
				if r.Intn(3) != 0 {
					ip.nonEmpty |= bit
				}
				if vc.state == vcWaitVC {
					ip.waitVC |= bit
				}
				if vc.state == vcActive {
					ip.active |= bit
					vc.outPort, vc.outVC = int8(r.Intn(numOutPorts)), int8(r.Intn(rt.nvc))
				}
			}
		}
		_, rt.bidPorts, _ = activityMasks(rt)
		rt.starveFloor = now - 30 // a valid lower bound on every waitSince
		for o := range rt.out {
			rt.out[o].stalledUntil = 0
			if n.faulted && r.Intn(4) == 0 {
				rt.out[o].stalledUntil = now - 2 + int64(r.Intn(5))
			}
			rt.outNext[o] = int32(r.Intn(len(rt.sps)))
		}
		for i := range rt.sps {
			sp := &rt.sps[i]
			members := (rt.nvc - int(sp.first) + int(sp.stride) - 1) / int(sp.stride)
			sp.next = sp.first + uint8(r.Intn(members))*sp.stride
		}

		wantWin, wantSPs, wantNext := separableSA(rt, now)
		var won [numOutPorts]saGrant
		wonOuts := rt.arbitrate(now, &won)
		for o := range won {
			got := [2]int32{-1, -1}
			if g := won[o]; g.rank != 0 {
				got = [2]int32{rt.sps[g.sp].port, g.vc}
			}
			if (wonOuts&(1<<uint(o)) != 0) != (got[0] >= 0) {
				t.Fatalf("iter %d out %d: won mask %05b, winner %d/%d", iter, o, wonOuts, got[0], got[1])
			}
			if got != wantWin[o] {
				t.Fatalf("iter %d out %d: fused grants %d/%d, separable stages %d/%d", iter, o, got[0], got[1], wantWin[o][0], wantWin[o][1])
			}
		}
		if rt.outNext != wantNext {
			t.Fatalf("iter %d: output pointers %v, separable stages %v", iter, rt.outNext, wantNext)
		}
		for i := range rt.sps {
			if rt.sps[i] != wantSPs[i] {
				t.Fatalf("iter %d switch-port %d: %+v, separable stages %+v", iter, i, rt.sps[i], wantSPs[i])
			}
		}
		if rt.prioArbOn && now-rt.starveFloor > n.cfg.StarvationLimit { // the guard rescanned and fired
			starvedSeen++
		}
		for o := range rt.out {
			if rt.out[o].stalledUntil > now && wantWin[o][0] < 0 {
				faultDropped++
			}
		}
	}
	if starvedSeen == 0 || faultDropped == 0 {
		t.Fatalf("states never exercised the starvation guard (%d) or a stalled output (%d)", starvedSeen, faultDropped)
	}
}

// TestPickOutVCMatchesScan is VA's choice: the reference is the scan the
// router used to run — candidates in order, downstream VCs descending, first
// strict maximum of credits among unowned VCs with room for the whole
// packet (non-atomic allocation), for every size a VC holds.
func TestPickOutVCMatchesScan(t *testing.T) {
	r := rng.New(17)
	cfg := Config{Mesh: Mesh{Width: 3, Height: 3}, VCs: 6, LinkBits: 128, DataBytes: 128,
		Routing: RouteMinAdaptive}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	depth := n.cfg.LongPacketFlits()
	rt := &n.routers[4] // centre: every mesh output has a link
	vc := &rt.vcs[0]
	for iter := 0; iter < 20000; iter++ {
		for o := range rt.out {
			op := &rt.out[o]
			op.free = 0
			for v := range op.vcs {
				op.vcs[v] = outVCState{credits: int32(r.Intn(depth + 1)), ownerPort: -1}
				if r.Intn(3) == 0 {
					op.vcs[v].ownerPort = 1
				} else {
					op.free |= 1 << uint(v)
				}
			}
		}
		pkt := &Packet{Size: 1 + r.Intn(depth)}
		h := n.pkts.add(pkt)
		vc.buf = flitQueue{buf: vc.buf.buf}
		vc.buf.push(flit{h: h})
		vc.nCands = uint8(1 + r.Intn(2))
		for i := range vc.cands[:vc.nCands] {
			vc.cands[i] = routeCandidate{port: int8(r.Intn(numOutPorts)), vcMask: uint32(r.Uint64()) & maskAll(cfg.VCs)}
		}

		wantPort, wantVC, best := -1, -1, int32(-1)
		for _, cand := range vc.cands[:vc.nCands] {
			for v := cfg.VCs - 1; v >= 0; v-- {
				ov := rt.out[cand.port].vcs[v]
				if cand.vcMask&(1<<uint(v)) != 0 && ov.ownerPort < 0 && int(ov.credits) >= pkt.Size && ov.credits > best {
					wantPort, wantVC, best = int(cand.port), v, ov.credits
				}
			}
		}
		if gotPort, gotVC := rt.pickOutVC(vc); gotPort != wantPort || gotVC != wantVC {
			t.Fatalf("iter %d: pickOutVC = %d/%d, scan = %d/%d", iter, gotPort, gotVC, wantPort, wantVC)
		}
		n.pkts.release(h)
	}
}
