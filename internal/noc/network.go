package noc

import (
	"math/bits"

	"repro/internal/stats"
)

// Network is a cycle-accurate 2D-mesh NoC.
type Network struct {
	fabricBase
	// Routers, ejectors and NIs live by value, indexed by node id; their
	// ports, VCs, flit rings and credit arrays are carved from a handful of
	// per-network slabs (see slabs), so construction costs a few dozen
	// allocations and a router's hot state sits in contiguous memory.
	routers  []router
	ejectors []ejector
	nis      []NI

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
	// faulted is set by the first StallLink, FreezeInputPort or CorruptLink.
	// Until then every frozenUntil/stalledUntil/corruptUntil horizon is 0,
	// never after the current cycle, so switch allocation and traversal skip
	// reading them.
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

	// injWindow tracks packets injected in the current 100-cycle window,
	// to expose the peak packet injection rate used by eq. (1)'s speedup
	// sizing (§4.2).
	injWindowCount uint32
	injWindowStart int64
	InjWindows     []uint32

	// pkts holds every packet with a flit in an NI queue, staged, in a VC
	// buffer or in an ejector; flits carry its handles.
	pkts pktTable
	// vaGrants counts successful VC allocations. It lives here rather than
	// in NetStats so encoded Results (which embed NetStats) stay
	// byte-identical to pre-observability golden files.
	vaGrants uint64
}

var _ Fabric = (*Network)(nil)

// slabs are the backing arrays every router, ejector and NI of one network
// is carved from (carve hands out consecutive sub-slices), sized exactly by
// newSlabs.
type slabs struct {
	inPorts  []inputPort
	outPorts []outputPort
	inVCs    []inputVC
	outVCs   []outVCState
	sps      []switchPort
	staged   []stagedFlit
	flits    []flit
	queues   []flitQueue
	int32s   []int32
	bools    []bool
}

// carve cuts the next n elements off the front of *slab, capped so an
// append to the result can never run into its neighbour.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

func newSlabs(cfg *Config) *slabs {
	var inPorts, sps, staged, flits, queues, int32s, bools int
	nodes, long := cfg.Mesh.Nodes(), cfg.LongPacketFlits()
	for id := 0; id < nodes; id++ {
		nc := cfg.node(id)
		numIn := NumDirections + nc.injPorts()
		inPorts += numIn
		sps += NumDirections + nc.injPorts()*nc.injSpeedup(cfg.VCs)
		// Router input staging plus the ejector's one flit per cycle.
		staged += stagedCap(nc, cfg.VCs) + 1
		// Router VC and ejector rings (a long packet each), NI queue(s).
		flits += (numIn+1)*cfg.VCs*long + niQueueFlits(cfg, nc)
		queues += cfg.VCs
		if nc.NI == NISplit {
			queues += cfg.VCs
		}
		// Output creditIn slots, the NI's injection-VC credits and the
		// router's switch-port offsets.
		int32s += (numOutPorts+nc.injPorts())*cfg.VCs + numIn + 1
		if cfg.RetransBufPkts > 0 {
			bools += cfg.VCs
		}
	}
	return &slabs{
		inPorts:  make([]inputPort, inPorts),
		outPorts: make([]outputPort, nodes*numOutPorts),
		inVCs:    make([]inputVC, inPorts*cfg.VCs),
		outVCs:   make([]outVCState, nodes*numOutPorts*cfg.VCs),
		sps:      make([]switchPort, sps),
		staged:   make([]stagedFlit, staged),
		flits:    make([]flit, flits),
		queues:   make([]flitQueue, queues),
		int32s:   make([]int32, int32s),
		bools:    make([]bool, bools),
	}
}

// NewNetwork builds a network from cfg (validated first).
func NewNetwork(cfg Config) (*Network, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	n := &Network{fabricBase: fabricBase{cfg: cfg, longPkt: cfg.LongPacketFlits()}}
	nodes := cfg.Mesh.Nodes()
	n.routers = make([]router, nodes)
	n.ejectors = make([]ejector, nodes)
	n.nis = make([]NI, nodes)
	activity := make([]int32, 3*nodes)
	n.routerFlits = carve(&activity, nodes)
	n.ejectFlits = carve(&activity, nodes)
	n.niQueued = carve(&activity, nodes)
	n.busy = make([]uint64, (nodes+63)/64)
	sl := newSlabs(&n.cfg)
	for id := range n.routers {
		n.routers[id].init(n, id, sl)
	}
	// Wire mesh links and local ports.
	meshLinks, injLinks := 0, 0
	for id := range n.routers {
		r := &n.routers[id]
		for d := Direction(0); d < Direction(NumDirections); d++ {
			nb := cfg.Mesh.Neighbor(id, d)
			if nb < 0 {
				continue
			}
			// Output port d of this router feeds input port opposite(d) of
			// the neighbour.
			op := &r.out[d]
			op.dest, op.destPort = &n.routers[nb], int32(d.opposite())
			dst := &op.dest.in[op.destPort]
			dst.upstream, dst.upOut = r, int32(d)
			meshLinks++
		}
		n.ejectors[id].init(n, r, sl)
		r.out[ejectPortIndex].eject = &n.ejectors[id]
		ni := &n.nis[id]
		ni.init(n, r, sl)
		if ni.mode == NISplit {
			injLinks += cfg.VCs
		} else {
			injLinks += ni.injPorts
		}
	}
	n.stats.MeshLinks = meshLinks
	n.stats.InjLinks = injLinks
	return n, nil
}

// Config returns the validated configuration.
func (n *Network) Config() Config { return n.cfg }

// MarkMCRouter tags a node's router as an MC-router (stats/diagnostics).
func (n *Network) MarkMCRouter(node int) { n.routers[node].isMC = true }

// SetSinkGate installs the per-node ejection readiness check.
func (n *Network) SetSinkGate(g func(node int) bool) { n.sinkGate = g }

// ResetStats clears measurement counters (end of warmup) while preserving
// structural fields and all in-flight state.
func (n *Network) ResetStats() {
	meshLinks, injLinks := n.stats.MeshLinks, n.stats.InjLinks
	n.stats = NetStats{MeshLinks: meshLinks, InjLinks: injLinks}
	n.InjWindows = n.InjWindows[:0]
	n.injWindowCount = 0
	n.injWindowStart = n.now
	for i := range n.nis {
		ni := &n.nis[i]
		ni.occupancy = stats.NewTimeWeightedAt(float64(ni.queuedFlits()), n.now)
		ni.everHeld = ni.queuedFlits() > 0
		ni.rejectedOfferEvents = 0
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
	ok := n.nis[node].Offer(pkt, n.now)
	if ok {
		n.injWindowCount++
	}
	return ok
}

// Step advances the network one cycle: arrivals and credits land and NIs
// supply flits, then every router runs its fused RC/VA/SA/ST cycle (see
// router.cycle for why fusing is order-safe), then ejectors drain in node
// order. Each sweep walks the busy set in node order and, at a busy node,
// visits only the components whose activity counter is non-zero:
//
//   - a router with no flits has nothing buffered or staged, so RC/VA/SA
//     are no-ops on it (vcWaitVC implies a buffered head flit, and the
//     round-robin arbiters advance only on grants); the per-cycle VA
//     rotation it would have performed is fast-forwarded on wake-up inside
//     vcAllocate, and credits staged toward it stay in creditIn until its
//     next applyArrivals — no decision can read them before then;
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
// whole cycle is skipped. DESIGN.md §7 has the argument in full.
func (n *Network) Step() {
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

// endCycle closes the cycle: the clock, the cycle count and the 100-cycle
// injection windows.
func (n *Network) endCycle() {
	n.now++
	n.stats.Cycles++
	if n.now-n.injWindowStart >= 100 {
		n.InjWindows = append(n.InjWindows, n.injWindowCount)
		n.injWindowCount = 0
		n.injWindowStart = n.now
	}
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

// PeakInjWindow returns the p-th percentile (0..100) of the network's
// per-100-cycle packet injection counts (eq. (1), see peakWindow).
func (n *Network) PeakInjWindow(p float64) float64 { return peakWindow(n.InjWindows, p) }
