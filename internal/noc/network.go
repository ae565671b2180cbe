package noc

import (
	"math/bits"

	"repro/internal/slab"
	"repro/internal/stats"
)

// Network is a cycle-accurate 2D-mesh NoC.
type Network struct {
	fabricBase
	// Routers, ejectors and NIs live by value, indexed by node id; their
	// ports, VCs, ring records and credit arrays are carved from a handful
	// of per-network slabs (see slabs), so construction costs a few dozen
	// allocations and a router's hot state sits in contiguous memory. No
	// slab record holds a pointer: ports name their neighbours by node id
	// and rings their storage by offset into handles.
	routers  []router
	ejectors []ejector
	nis      []NI
	// handles backs every packet ring of the network — router and ejector
	// VCs and NI queues — one packet-table handle slot per flit of
	// capacity.
	handles []uint32

	// Activity counters, indexed by node id: routerFlits[i] counts flits
	// resident in router i (VC buffers plus staged arrivals), ejectFlits[i]
	// the same for its ejector, niQueued[i] the flits queued in its NI. They
	// are the O(1) predicates of event-driven stepping, and CheckInvariants
	// asserts they equal a full recount.
	routerFlits []int32
	ejectFlits  []int32
	niQueued    []int32
	// busy has bit i set while node i may hold work (markBusy); Step's
	// sweeps walk its set bits and its ejection sweep clears a node's bit
	// once the three counters are zero and its NI owes no protocol work.
	busy []uint64

	// ctlPending counts ACK/NACK sideband signals issued but not yet
	// consumed; it keeps Step and Idle honest after the last flit drains
	// while acknowledgements are still propagating.
	ctlPending int
	// faults is the fault schedule (ScheduleFaults), nil on a fault-free
	// network; Step draws its faults first.
	faults *faultSchedule
	// faulted is set by the first transient fault (Network.fault). Until
	// then every frozenUntil/stalledUntil/corruptUntil horizon is 0, never
	// after the current cycle, so switch allocation, traversal and the NIs
	// skip reading them.
	faulted bool
	// ftable is the fault-adaptive up*/down* next-hop table, non-nil once
	// any mesh link is permanently dead; it then supersedes the configured
	// routing algorithm entirely (ftable.go). Rebuilt on every kill,
	// read-only during stepping.
	ftable []uint8
	// sinkGate, when set, lets a node refuse ejection this cycle (e.g. a
	// memory controller whose request ingress is full); the refusal backs
	// flits up into the network — the §3 backpressure chain.
	sinkGate func(node int) bool

	// pkts holds every packet with a flit in an NI queue, staged, in a VC
	// buffer or in an ejector; rings and flits name it by its handle.
	pkts pktTable
	// slabs is the whole storage the network was carved from, kept so that
	// Init can carve the next network from it.
	slabs slabs
	// vaGrants counts successful VC allocations. It lives here rather than
	// in NetStats so encoded Results (which embed NetStats) stay
	// byte-identical to pre-observability golden files.
	vaGrants uint64
}

var _ Fabric = (*Network)(nil)

// slabs are the backing arrays every router, ejector and NI of one network
// is carved from (carve hands out consecutive sub-slices, ring consecutive
// stretches of handles), sized exactly by Config.buffers, plus the three
// per-node activity counters at the front of int32s.
type slabs struct {
	inPorts  []inputPort
	outPorts []outputPort
	inVCs    []inputVC
	outVCs   []outVCState
	sps      []switchPort
	staged   []stagedFlit
	rings    []pktRing
	int32s   []int32
	handles  []uint32
	nextSlot int // the first handle slot no ring holds yet
}

// carve cuts the next n elements off the front of *from, capped so an
// append to the result can never run into its neighbour.
func carve[T any](from *[]T, n int) []T {
	s := (*from)[:n:n]
	*from = (*from)[n:]
	return s
}

// ring hands out the next capacity slots of the handle slab as a ring.
func (sl *slabs) ring(capacity int) pktRing {
	q := pktRing{off: int32(sl.nextSlot)}
	sl.nextSlot += capacity
	return q
}

// fit sizes the slabs for cfg, each cleared in its own backing array when
// that is large enough, else allocated.
func (sl *slabs) fit(cfg *Config) {
	b, nodes := cfg.buffers(), cfg.Mesh.Nodes()
	slab.Fit(&sl.inPorts, b.inPorts)
	slab.Fit(&sl.outPorts, nodes*numOutPorts)
	slab.Fit(&sl.inVCs, b.inPorts*cfg.VCs)
	slab.Fit(&sl.outVCs, nodes*numOutPorts*cfg.VCs)
	slab.Fit(&sl.sps, b.sps)
	slab.Fit(&sl.staged, b.staged)
	slab.Fit(&sl.rings, b.rings)
	slab.Fit(&sl.int32s, 3*nodes+b.int32s)
	slab.Fit(&sl.handles, b.flits)
	sl.nextSlot = 0
}

// NewNetwork builds a network from cfg (validated first).
func NewNetwork(cfg Config) (*Network, error) {
	n := new(Network)
	if err := n.Init(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Init builds n from cfg (validated first) in place, as NewNetwork does: the
// router, ejector and NI arrays, slabs, packet table and packet freelist it
// already holds are cleared and carved again.
func (n *Network) Init(cfg Config) error {
	cfg, err := cfg.Validate()
	if err != nil {
		return err
	}
	*n = Network{
		fabricBase: n.reuseBase(cfg),
		routers:    n.routers,
		ejectors:   n.ejectors,
		nis:        n.nis,
		busy:       n.busy,
		pkts:       n.pkts.reset(),
		slabs:      n.slabs,
	}
	n.slabs.fit(&cfg)
	sl := n.slabs // carving consumes sl; n.slabs stays whole for the next Init
	n.handles = sl.handles
	nodes := cfg.Mesh.Nodes()
	slab.Fit(&n.routers, nodes)
	slab.Fit(&n.ejectors, nodes)
	slab.Fit(&n.nis, nodes)
	n.routerFlits = carve(&sl.int32s, nodes)
	n.ejectFlits = carve(&sl.int32s, nodes)
	n.niQueued = carve(&sl.int32s, nodes)
	slab.Fit(&n.busy, (nodes+63)/64)
	meshLinks, injLinks := 0, 0
	cfg.eachNode(func(id int, nc NodeConfig, mc bool) {
		r := &n.routers[id]
		r.init(n, id, nc, &sl)
		r.isMC = mc
		for d := 0; d < NumDirections; d++ {
			if r.out[d].dest >= 0 {
				meshLinks++
			}
		}
		n.ejectors[id].init(n, r, &sl)
		ni := &n.nis[id]
		ni.init(n, r, nc.NI, &sl)
		if ni.mode == NISplit {
			injLinks += cfg.VCs
		} else {
			injLinks += ni.injPorts
		}
	})
	n.stats.MeshLinks = meshLinks
	n.stats.InjLinks = injLinks
	return nil
}

// Config returns the validated configuration.
func (n *Network) Config() Config { return n.cfg }

// SetSinkGate installs the per-node ejection readiness check.
func (n *Network) SetSinkGate(g func(node int) bool) { n.sinkGate = g }

// ResetStats clears measurement counters (end of warmup) while preserving
// structural fields and all in-flight state.
func (n *Network) ResetStats() {
	meshLinks, injLinks := n.stats.MeshLinks, n.stats.InjLinks
	n.stats = NetStats{MeshLinks: meshLinks, InjLinks: injLinks}
	for i := range n.nis {
		ni := &n.nis[i]
		ni.occupancy = stats.NewTimeWeightedAt(float64(ni.queuedFlits()), n.now)
		ni.everHeld = ni.queuedFlits() > 0
		ni.injectedFlits = 0
	}
	for i := range n.routers {
		for o := range n.routers[i].out {
			n.routers[i].out[o].flits = 0
		}
	}
}

// CanInject reports whether node's NI can accept pkt this cycle.
func (n *Network) CanInject(node int, pkt *Packet) bool {
	return n.nis[node].CanAccept(pkt, n.now)
}

// Inject hands pkt to node's NI. pkt.Size must already be set (use
// PacketSize) and at most a long packet; pkt.Src is overwritten with node.
// The packet is numbered before its NI can refuse it.
func (n *Network) Inject(node int, pkt *Packet) bool {
	n.checkPacket(pkt)
	pkt.Src = node
	n.number(pkt)
	return n.nis[node].Offer(pkt, n.now)
}

// Step advances the network one cycle: the fault schedule, if any, draws
// this cycle's faults; arrivals and credits land and NIs supply flits, then
// every router runs its fused RC/VA/SA/ST cycle (see router.cycle for why
// fusing is order-safe), then ejectors drain in node order. Each sweep
// walks the busy set in node order and, at a busy node, visits only the
// components whose activity counter is non-zero:
//
//   - a router with no flits has nothing buffered or staged, so RC/VA/SA
//     are no-ops on it (vcWaitVC implies a buffered head flit, and the
//     round-robin arbiters advance only on grants, while VA's rotation is
//     a function of the cycle); credits staged toward it stay in creditIn
//     until its next applyArrivals — no decision can read them before then;
//   - an NI with no queued flits can neither supply a flit nor change its
//     time-weighted occupancy (the level is unchanged, and TimeWeighted.Set
//     is idempotent for unchanged levels) — unless the recovery protocol
//     still owes it work (protoActive);
//   - an ejector with no buffered or staged flits has nothing to drain.
//
// A sweep reads each word of the busy set once, when it reaches it, so a
// node marked while it runs may wait for the next cycle. That is exact too:
// a node the ejection sweep marks has nothing to eject, and a router woken
// by a neighbour's traversal holds only a staged flit, which lands next
// cycle. When no packet is in flight and no control signal is pending the
// rest of the cycle is skipped. DESIGN.md §7 has the argument in full.
func (n *Network) Step() {
	if n.faults != nil {
		n.faults.step(n)
	}
	if n.inFlight > 0 || n.ctlPending > 0 {
		now := n.now
		proto := n.recoveryOn()
		for w, m := range n.busy {
			for ; m != 0; m &= m - 1 {
				i := w<<6 | bits.TrailingZeros64(m)
				if n.routerFlits[i] > 0 {
					n.routers[i].applyArrivals()
				}
				if n.ejectFlits[i] > 0 {
					n.ejectors[i].applyArrivals()
				}
				if n.niQueued[i] > 0 || (proto && n.nis[i].protoActive()) {
					n.nis[i].step(now)
				}
			}
		}
		for w, m := range n.busy {
			for ; m != 0; m &= m - 1 {
				i := w<<6 | bits.TrailingZeros64(m)
				if n.routerFlits[i] > 0 {
					n.routers[i].cycle(now)
				}
			}
		}
		// Ejection is the one phase with global side effects (latency
		// accumulation, the ejection callback into node logic, inFlight
		// retirement); it runs last, in node order, and retires the busy bit
		// of every node it leaves with no work.
		for w, m := range n.busy {
			for ; m != 0; m &= m - 1 {
				i := w<<6 | bits.TrailingZeros64(m)
				if n.ejectFlits[i] > 0 {
					n.ejectors[i].consume(now)
				}
				if n.routerFlits[i] == 0 && n.ejectFlits[i] == 0 && n.niQueued[i] == 0 &&
					!(proto && n.nis[i].protoActive()) {
					n.busy[w] &^= m & -m
				}
			}
		}
	}
	n.endCycle()
}

// markBusy sets node's busy bit where it can go from idle to busy: a flit
// staged into a neighbour (traverse), Offer, and sendCtl. Every other work
// lands on a node already busy (DESIGN.md §7).
func (n *Network) markBusy(node int) { n.busy[node>>6] |= 1 << (node & 63) }

// endCycle closes the cycle: the clock and the cycle count.
func (n *Network) endCycle() {
	n.now++
	n.stats.Cycles++
}

// Idle reports whether no flit exists anywhere in the network and no
// recovery-protocol work (ACK/NACK signals, unacknowledged packets) remains.
func (n *Network) Idle() bool {
	if n.inFlight != 0 || n.ctlPending != 0 {
		return false
	}
	for i := range n.nis {
		if n.nis[i].queuedFlits() > 0 {
			return false
		}
	}
	return true
}

// VAGrants returns the cumulative count of successful VC allocations across
// all routers (observability; never reset, consumers take deltas).
func (n *Network) VAGrants() uint64 { return n.vaGrants }

// BufferedFlits returns the flits resident in routers (VC buffers plus
// staged arrivals): the instantaneous router occupancy of the fabric.
func (n *Network) BufferedFlits() int {
	total := 0
	for i := range n.routers {
		total += n.routers[i].flitCount()
	}
	return total
}

// NIQueuedFlits returns the flits waiting in all NI injection queues.
func (n *Network) NIQueuedFlits() int {
	total := 0
	for i := range n.nis {
		total += n.nis[i].queuedFlits()
	}
	return total
}

// VCOccupancy returns the flits buffered in input VC index v across every
// router and port: the per-VC occupancy breakdown of BufferedFlits (staged
// arrivals excluded — they have not landed in a VC yet). O(routers*ports);
// call it at sampling cadence, not per cycle.
func (n *Network) VCOccupancy(v int) int {
	if v < 0 || v >= n.cfg.VCs {
		return 0
	}
	total := 0
	for i := range n.routers {
		r := &n.routers[i]
		if r.flitCount() == 0 {
			continue
		}
		for p := range r.in {
			total += r.vcs[p*r.nvc+v].buf.len()
		}
	}
	return total
}

// NIOccupancyAvgFlits returns the mean time-weighted NI queue occupancy in
// flits over all NIs that injected traffic.
func (n *Network) NIOccupancyAvgFlits() float64 {
	var sum float64
	var cnt int
	for i := range n.nis {
		ni := &n.nis[i]
		if !ni.everHeld {
			continue
		}
		sum += ni.OccupancyAvg(n.now)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// NIQueueCapacityFlits returns the configured NI capacity of node.
func (n *Network) NIQueueCapacityFlits(node int) int {
	return n.nis[node].QueueCapacityFlits()
}

// LinkLoad reports per-node, per-direction flit counts over the run: a
// utilisation heatmap of the mesh (the ejection "direction" is index 4).
// Divide by Stats().Cycles for flits/cycle.
func (n *Network) LinkLoad() [][]uint64 {
	out := make([][]uint64, len(n.routers))
	for id := range n.routers {
		row := make([]uint64, numOutPorts)
		for o := range row {
			row[o] = n.routers[id].out[o].flits
		}
		out[id] = row
	}
	return out
}

// NILoad reports per-node injection-link flit counts.
func (n *Network) NILoad() []uint64 {
	out := make([]uint64, len(n.nis))
	for id := range n.nis {
		out[id] = n.nis[id].injectedFlits
	}
	return out
}
