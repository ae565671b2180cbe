package noc

import (
	"testing"

	"repro/internal/rng"
)

// The mask allocators of the router and the ejector are checked against the
// closure-driven roundRobin arbiter they replaced, driven the way the
// scan-based code drove it: same winners, same pointers, same
// creditStallCycles, over seeded random states.

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
// positions and counts a credit stall inside the request closure, so only
// the credit-less bidders visited before the winner count.
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
			all := maskAll(nvc)
			active, nonEmpty, hasCredit := uint32(r.Uint64())&all, uint32(r.Uint64())&all, uint32(r.Uint64())&all
			if r.Intn(4) == 0 {
				hasCredit = 0 // nobody wins: every bidder must count
			}
			refStalls := 0
			w := ref.pick(func(j int) bool {
				bit := uint32(1) << uint(members[j])
				if active&nonEmpty&bit == 0 {
					return false
				}
				if hasCredit&bit == 0 {
					refStalls++
					return false
				}
				return true
			})
			refV := -1
			if w >= 0 {
				refV = members[w]
			}
			v, stalls := sp.pick(active&nonEmpty&mask, hasCredit, nvc)
			if v != refV || stalls != refStalls || int(sp.next) != members[ref.next] {
				t.Fatalf("iter %d round %d (nvc %d first %d stride %d): mask pick = vc %d, %d stalls, pointer %d; reference vc %d, %d stalls, pointer %d",
					iter, round, nvc, first, stride, v, stalls, sp.next, refV, refStalls, members[ref.next])
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

// TestGrantOutputsMatchesRoundRobin is SA stage 2, with and without
// priorities, over more switch-ports than fit a 32-bit word.
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
				reqs = append(reqs, spRequest{sp: int32(sp), out: int32(r.Intn(numOutPorts)), prio: r.Intn(prioLevels)})
				bySP[sp] = len(reqs)
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
				got := -1
				if won[o] >= 0 {
					got = int(reqs[won[o]].sp)
				}
				if got != w || int(next[o]) != ref[o].next {
					t.Fatalf("iter %d round %d out %d (nSP %d): granted sp %d pointer %d; reference sp %d pointer %d",
						iter, round, o, nSP, got, next[o], w, ref[o].next)
				}
			}
		}
	}
}

// TestPickOutVCMatchesScan is VA's choice: the reference is the scan the
// router used to run — candidates in order, downstream VCs descending, first
// strict maximum of credits among unowned VCs that pass the allocation
// policy.
func TestPickOutVCMatchesScan(t *testing.T) {
	r := rng.New(17)
	for _, nonAtomic := range []bool{false, true} {
		cfg := Config{Mesh: Mesh{Width: 3, Height: 3}, VCs: 6, LinkBits: 128, DataBytes: 128,
			Routing: RouteMinAdaptive, NonAtomicVC: nonAtomic}
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		depth := n.cfg.VCDepth
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
			vc.buf = flitQueue{buf: vc.buf.buf}
			vc.buf.push(flit{pkt: pkt})
			vc.nCands = uint8(1 + r.Intn(2))
			for i := range vc.cands[:vc.nCands] {
				vc.cands[i] = routeCandidate{port: r.Intn(numOutPorts), vcMask: uint32(r.Uint64()) & maskAll(cfg.VCs)}
			}

			wantPort, wantVC, best := -1, -1, int32(-1)
			for _, cand := range vc.cands[:vc.nCands] {
				for v := cfg.VCs - 1; v >= 0; v-- {
					ov := rt.out[cand.port].vcs[v]
					ok := ov.credits == int32(depth)
					if nonAtomic {
						ok = int(ov.credits) >= pkt.Size
					}
					if cand.vcMask&(1<<uint(v)) != 0 && ov.ownerPort < 0 && ok && ov.credits > best {
						wantPort, wantVC, best = cand.port, v, ov.credits
					}
				}
			}
			if gotPort, gotVC := rt.pickOutVC(vc); gotPort != wantPort || gotVC != wantVC {
				t.Fatalf("nonAtomic=%v iter %d: pickOutVC = %d/%d, scan = %d/%d", nonAtomic, iter, gotPort, gotVC, wantPort, wantVC)
			}
		}
	}
}

// TestCreditStallCyclesGolden pins a network-level creditStallCycles count
// recorded with the closure-arbitrated router. Whole-packet allocation
// (atomic or WPF) grants a downstream VC only with credits for the entire
// packet, so the counter stays 0 unless a packet is longer than a VC buffer;
// split NIs inject those, and under atomic allocation the worm then runs out
// of credits mid-packet at every hop. InjSpeedup > 1 makes the MC routers'
// stage-1 windows strided.
func TestCreditStallCyclesGolden(t *testing.T) {
	mesh := Mesh{Width: 4, Height: 4}
	cfg := Config{Mesh: mesh, VCs: 4, LinkBits: 128, DataBytes: 128, Routing: RouteMinAdaptive,
		NIQueueFlits: 128, PriorityLevels: 2}
	mcs := DiamondMCPlacement(mesh, 4)
	cfg.Nodes = make([]NodeConfig, mesh.Nodes())
	for _, m := range mcs {
		cfg.Nodes[m] = NodeConfig{NI: NISplit, InjSpeedup: 2}
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.SetEjectHandler(func(int, *Packet, int64) {})
	r := rng.New(18)
	for cycle := 0; cycle < 6000; cycle++ {
		if cycle < 4000 {
			size := 1 + r.Intn(3*n.cfg.VCDepth) // up to three VC buffers long
			n.Inject(mcs[cycle%len(mcs)], &Packet{Type: ReadReply, Dst: r.Intn(mesh.Nodes()), Size: size})
		}
		n.Step()
		if cycle%97 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	if !n.Idle() {
		t.Fatal("network did not drain")
	}
	st := n.Stats()
	const wantStalls, wantSwitch, wantLatency = 332, 85614, 233224
	if lat := st.Latency[ReadReply].Sum(); st.CreditStallCycles != wantStalls || st.SwitchTraversals != wantSwitch || lat != wantLatency {
		t.Fatalf("creditStallCycles/switchTraversals/latency sum = %d/%d/%v, recorded %d/%d/%v",
			st.CreditStallCycles, st.SwitchTraversals, lat, wantStalls, wantSwitch, wantLatency)
	}
}
