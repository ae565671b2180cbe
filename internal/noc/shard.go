package noc

import (
	"fmt"

	"repro/internal/par"
)

// Sharded stepping partitions the mesh into K row-contiguous shards that
// step in parallel, with results byte-identical to serial stepping. The key
// observation is that the existing cycle structure is already two-phase:
// every cross-router interaction (flit traversal, credit return) is staged
// into a buffer that is only *read* at the start of the next cycle. Within
// a cycle, phases A (applyArrivals .. switchAllocate) of different routers
// therefore commute — except that the staging buffers themselves are plain
// slices, so two shards must not touch the same one concurrently.
//
// The parallel schedule:
//
//  1. compute: every shard runs phases A over its own routers/NIs/ejectors.
//     Writes that would cross a shard boundary (a flit staged toward a
//     neighbour router, a credit returned to an upstream output port) are
//     diverted into per-shard outboxes instead of the target's buffers —
//     partitioned by *destination* shard at staging time, which is what
//     makes phase 2 parallel.
//  2. barrier, then commit — in parallel: worker d drains, from every
//     source shard in ascending shard order, exactly the outbox entries
//     destined for shard d. Workers therefore write disjoint state (only
//     shard d's input buffers, credit counters and activity slots), and the
//     observable order is the serial one: each (input port, VC) buffer has
//     exactly one upstream router, hence exactly one source shard, so its
//     entries in the destination router's staged list keep that single
//     source's staging order — the order serial stepping produces. Credit
//     commits are integer additions and commute. See
//     DESIGN.md §16 for the full determinism argument.
//  3. eject: ejector consumption runs serially in node order. It is the one
//     phase with global side effects (float latency accumulation, the
//     ejection callback into node logic, inFlight retirement), and node
//     order is exactly the serial schedule.
//
// Statistics counters incremented inside phase A are redirected to
// per-shard delta structs and folded into the Network aggregates at step
// boundaries, so concurrent increments never share a memory location and
// the folded totals match serial counts (integer addition commutes).

// shardCounters are the per-shard deltas of every counter that phase A (or
// node-side injection, which the core layer also fans out by shard)
// increments. fold() drains them into the Network aggregates.
type shardCounters struct {
	packetsInjected   [NumPacketTypes]uint64
	flitsInjected     [NumPacketTypes]uint64
	niFullRejects     uint64
	injLinkFlits      uint64
	meshLinkFlits     uint64
	switchTraversals  uint64
	creditStallCycles uint64
	vaGrants          uint64
	inFlight          int
	injWindow         uint32
	// Fault-recovery deltas (recovery.go): corruption marking happens in
	// traverse, retransmission and control-signal consumption in ni.step —
	// all phase-A work, so they take the same per-shard path as the rest.
	corruptFlits       uint64
	retransPackets     uint64
	retransFlits       uint64
	retransFullRejects uint64
	ctlConsumed        uint64
	// pktIDNext/pktIDStride give each shard a disjoint packet-ID sequence
	// (shard i issues i+1, i+1+K, ...), so concurrent injection needs no
	// shared counter. IDs are not part of encoded Results; with one shard
	// the sequence 1,2,3,... is identical to the historical serial one.
	pktIDNext   uint64
	pktIDStride uint64
}

// remoteFlit is a flit staged toward a router owned by another shard.
type remoteFlit struct {
	dst *router
	sf  stagedFlit
}

// remoteCredit is a credit returned to output port out of a router owned by
// another shard.
type remoteCredit struct {
	r       *router
	out, vc int32
}

// netShard is one spatial partition of the mesh: a contiguous node range,
// the SoA activity state of its components, and the outboxes and counter
// deltas of its worker.
type netShard struct {
	index    int
	lo, hi   int // node range [lo, hi)
	routers  []router
	ejectors []ejector
	nis      []NI
	// proto mirrors Config.RetransBufPkts > 0: the NI stepping predicate
	// must also consult protocol activity (ACK/NACK inboxes, pending
	// retransmissions) when the recovery layer is on.
	proto bool

	// SoA activity counters (soa.go), indexed by node id - lo and carved
	// from one cache-line-aligned block per shard: routerFlits[i] counts
	// flits resident in router lo+i (VC buffers plus staged arrivals),
	// ejectFlits[i] the same for its ejector, niQueued[i] the flits queued
	// in its NI. They are the O(1) activity predicates of event-driven
	// stepping; CheckInvariants asserts they equal a full recount.
	routerFlits []int32
	ejectFlits  []int32
	niQueued    []int32

	ctr shardCounters
	// _ pads the phase-A-hot counter deltas away from the outbox slice
	// headers below, which the same worker mutates on a different cadence;
	// the shard structs themselves are separate allocations, so cross-shard
	// sharing is already impossible.
	_ [cacheLine]byte

	// outFlits[d] / outCredits[d] stage boundary crossings destined for
	// shard d (only adjacent shards exchange traffic under row-contiguous
	// partitioning, but indexing by destination keeps the commit fully
	// general). The commit phase drains them with shard d's worker.
	outFlits   [][]remoteFlit
	outCredits [][]remoteCredit
}

// step runs phases A for every component of the shard in two sweeps over
// its nodes: first arrivals and NI supply (a node's router arrivals, ejector
// arrivals and NI step touch disjoint state, and an NI only feeds its own
// router), then each router's fused RC/VA/SA cycle (see router.cycle for why
// fusing is order-safe). scan selects the scan-everything reference loop;
// otherwise the event-driven predicates apply per component, read from the
// dense per-shard activity arrays (a fully idle shard degenerates to linear
// int32 sweeps that touch no component struct at all).
func (s *netShard) step(now int64, scan bool) {
	for i := range s.routers {
		if scan || s.routerFlits[i] > 0 {
			s.routers[i].applyArrivals(now)
		}
		if scan || s.ejectFlits[i] > 0 {
			s.ejectors[i].applyArrivals(now)
		}
		if scan || s.niQueued[i] > 0 || (s.proto && s.nis[i].protoActive()) {
			s.nis[i].step(now)
		}
	}
	for i := range s.routers {
		if scan || s.routerFlits[i] > 0 {
			s.routers[i].cycle(now)
		}
	}
}

// ShardRanges partitions the mesh's node ids into k row-contiguous ranges
// (shard i covers rows [i*H/k, (i+1)*H/k)). k is clamped to [1, Height] so
// every shard owns at least one full row; callers that fan node logic out
// over the same workers must use these exact ranges so a node's NI is only
// ever injected into from its own shard's worker.
func ShardRanges(m Mesh, k int) [][2]int {
	k = EffectiveShards(m, k)
	ranges := make([][2]int, k)
	for i := 0; i < k; i++ {
		loRow := i * m.Height / k
		hiRow := (i + 1) * m.Height / k
		ranges[i] = [2]int{loRow * m.Width, hiRow * m.Width}
	}
	return ranges
}

// EffectiveShards clamps a requested shard count to what the mesh supports:
// at least 1, at most one shard per row.
func EffectiveShards(m Mesh, k int) int {
	if k < 1 {
		return 1
	}
	if k > m.Height {
		return m.Height
	}
	return k
}

// buildShards installs a k-way partition (k already clamped). Every router,
// NI and ejector learns its shard and its slot in the shard's activity
// arrays, boundary-crossing links are marked with their destination shard
// so traverse diverts them through the right outbox, and any activity
// counts from a previous partition are carried over.
func (n *Network) buildShards(k int) {
	// Snapshot the activity counters of the outgoing partition (zero on
	// first build): re-sharding must not lose in-flight state.
	nodes := n.cfg.Mesh.Nodes()
	var oldR, oldE, oldQ []int32
	if n.shards != nil {
		oldR = make([]int32, nodes)
		oldE = make([]int32, nodes)
		oldQ = make([]int32, nodes)
		for _, s := range n.shards {
			copy(oldR[s.lo:s.hi], s.routerFlits)
			copy(oldE[s.lo:s.hi], s.ejectFlits)
			copy(oldQ[s.lo:s.hi], s.niQueued)
		}
	}
	ranges := ShardRanges(n.cfg.Mesh, k)
	n.shards = make([]*netShard, len(ranges))
	for i, rg := range ranges {
		s := &netShard{
			index:      i,
			lo:         rg[0],
			hi:         rg[1],
			routers:    n.routers[rg[0]:rg[1]],
			ejectors:   n.ejectors[rg[0]:rg[1]],
			nis:        n.nis[rg[0]:rg[1]],
			proto:      n.cfg.RetransBufPkts > 0,
			outFlits:   make([][]remoteFlit, len(ranges)),
			outCredits: make([][]remoteCredit, len(ranges)),
		}
		ns := rg[1] - rg[0]
		block := alignedInt32s(3 * ns)
		s.routerFlits = block[0*ns : 1*ns : 1*ns]
		s.ejectFlits = block[1*ns : 2*ns : 2*ns]
		s.niQueued = block[2*ns : 3*ns : 3*ns]
		if oldR != nil {
			copy(s.routerFlits, oldR[s.lo:s.hi])
			copy(s.ejectFlits, oldE[s.lo:s.hi])
			copy(s.niQueued, oldQ[s.lo:s.hi])
		}
		s.ctr.pktIDNext = uint64(i + 1)
		s.ctr.pktIDStride = uint64(len(ranges))
		for j := range s.routers {
			s.routers[j].sh, s.routers[j].lidx = s, int32(j)
			s.ejectors[j].sh, s.ejectors[j].lidx = s, int32(j)
			s.nis[j].sh, s.nis[j].lidx = s, int32(j)
		}
		n.shards[i] = s
	}
	// Mark boundary links: an output port whose destination router lives in
	// another shard, and an input port whose upstream output port does. The
	// destination/upstream shard index is precomputed so traverse can stage
	// into the per-destination outbox without chasing pointers.
	for i := range n.routers {
		r := &n.routers[i]
		for o := range r.out {
			op := &r.out[o]
			op.remote = op.dest != nil && op.dest.sh != r.sh
			if op.remote {
				op.remoteShard = int32(op.dest.sh.index)
			} else {
				op.remoteShard = -1
			}
		}
		for p := range r.in {
			ip := &r.in[p]
			ip.remoteUpstream = ip.upstream != nil && ip.upstream.sh != r.sh
			if ip.remoteUpstream {
				ip.upstreamShard = int32(ip.upstream.sh.index)
			} else {
				ip.upstreamShard = -1
			}
		}
	}
	n.sharded = len(n.shards) > 1
	if n.shardStepFn == nil {
		n.shardStepFn = func(i int) { n.shards[i].step(n.now, n.scan) }
	}
	if n.commitFn == nil {
		n.commitFn = func(d int) { n.commitShard(d) }
	}
}

// SetShards partitions the network into k parallel stepping shards (clamped
// to [1, mesh height]; see EffectiveShards) and returns the effective count.
// pool supplies the workers; nil makes the network own a pool sized to the
// shard count, released by Close. Call it on a quiescent network — before
// traffic, or between drained runs — and never while tracing is enabled
// (tracer callbacks are synchronous and would race across shards).
func (n *Network) SetShards(k int, pool *par.Pool) (int, error) {
	if n.inFlight != 0 {
		return 0, fmt.Errorf("noc: SetShards on a network with %d packets in flight", n.inFlight)
	}
	k = EffectiveShards(n.cfg.Mesh, k)
	if k > 1 && n.tracer != nil {
		return 0, fmt.Errorf("noc: packet tracing is incompatible with %d-way sharded stepping", k)
	}
	n.fold()
	// Re-sharding keeps packet IDs unique: every already-issued ID is below
	// some shard's next-ID cursor, so the new sequences start past the max.
	// On a fresh network base is 0 and shard i starts at i+1 with stride k
	// (k=1 reproduces the historical serial sequence 1, 2, 3, ...).
	base := uint64(0)
	for _, s := range n.shards {
		if s.ctr.pktIDNext > base+1 {
			base = s.ctr.pktIDNext - 1
		}
	}
	n.buildShards(k)
	for i, s := range n.shards {
		s.ctr.pktIDNext = base + uint64(i) + 1
		s.ctr.pktIDStride = uint64(k)
	}
	if n.ownPool != nil {
		n.ownPool.Close()
		n.ownPool = nil
	}
	if pool == nil && k > 1 {
		pool = par.New(k)
		n.ownPool = pool
	}
	n.stepPool = pool
	return k, nil
}

// Shards returns the current shard count (1 when serial).
func (n *Network) Shards() int { return len(n.shards) }

// Close releases the worker pool a SetShards(k, nil) call made the network
// own. Safe to call on any network, any number of times.
func (n *Network) Close() {
	if n.ownPool != nil {
		n.ownPool.Close()
		n.ownPool = nil
		n.stepPool = nil
	}
}

// fold drains every shard's counter deltas into the Network aggregates.
// Called at step boundaries and from accessors, so observers (which hold
// &n.stats) always read fully folded totals between steps.
func (n *Network) fold() {
	for _, s := range n.shards {
		c := &s.ctr
		for t := range c.packetsInjected {
			n.stats.PacketsInjected[t] += c.packetsInjected[t]
			n.stats.FlitsInjected[t] += c.flitsInjected[t]
			c.packetsInjected[t] = 0
			c.flitsInjected[t] = 0
		}
		n.stats.NIFullRejects += c.niFullRejects
		n.stats.InjLinkFlits += c.injLinkFlits
		n.stats.MeshLinkFlits += c.meshLinkFlits
		n.stats.SwitchTraversals += c.switchTraversals
		n.stats.CreditStallCycles += c.creditStallCycles
		n.vaGrants += c.vaGrants
		n.inFlight += c.inFlight
		n.injWindowCount += c.injWindow
		n.recovery.CorruptFlits += c.corruptFlits
		n.recovery.RetransPackets += c.retransPackets
		n.recovery.RetransFlits += c.retransFlits
		n.recovery.RetransBufFullRejects += c.retransFullRejects
		n.ctlPending -= int(c.ctlConsumed)
		c.niFullRejects = 0
		c.injLinkFlits = 0
		c.meshLinkFlits = 0
		c.switchTraversals = 0
		c.creditStallCycles = 0
		c.vaGrants = 0
		c.inFlight = 0
		c.injWindow = 0
		c.corruptFlits = 0
		c.retransPackets = 0
		c.retransFlits = 0
		c.retransFullRejects = 0
		c.ctlConsumed = 0
	}
}

// commitShards drains the per-shard outboxes into their targets, in
// parallel: worker d commits everything destined for shard d, scanning
// source shards in ascending order. Workers write disjoint state (only
// their own shard's input buffers, credit counters and activity slots), and
// the result is byte-identical to a serial shard-order drain: each input
// buffer has exactly one upstream router, hence one source shard, so its
// arrival order is that source's staging order under either schedule;
// credit commits are commutative integer additions.
func (n *Network) commitShards() {
	staged := 0
	for _, s := range n.shards {
		for d := range s.outFlits {
			staged += len(s.outFlits[d]) + len(s.outCredits[d])
		}
	}
	if staged == 0 {
		return
	}
	n.stepPool.Run(len(n.shards), n.commitFn)
}

// commitShard lands every staged boundary crossing destined for shard d.
// Pointers in drained entries are cleared so retired packets do not linger
// reachable through outbox backing arrays.
func (n *Network) commitShard(d int) {
	for _, s := range n.shards {
		flits := s.outFlits[d]
		for i := range flits {
			rf := &flits[i]
			rf.dst.stage(rf.sf.f, rf.sf.port, rf.sf.vc, rf.sf.deliverAt)
			rf.dst = nil
			rf.sf.f.pkt = nil
		}
		s.outFlits[d] = flits[:0]
		credits := s.outCredits[d]
		for i := range credits {
			credits[i].r.returnCredit(credits[i].out, credits[i].vc)
			credits[i].r = nil
		}
		s.outCredits[d] = credits[:0]
	}
}
