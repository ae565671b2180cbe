package noc

import (
	"cmp"
	"fmt"
	"slices"
)

// Fabric is the interface between node logic and an interconnect. Three
// types implement it: the cycle-accurate mesh Network, the DA2mesh overlay
// (DA2Mesh) and the unlimited-bandwidth IdealFabric. Callers drive and
// observe a fabric through it alone; what only the mesh has (routers, VCs,
// per-link load, fault hooks) stays on *Network.
type Fabric interface {
	// CanInject reports whether Inject(node, pkt) would succeed this cycle.
	CanInject(node int, pkt *Packet) bool
	// Inject hands a whole packet to node's NI; false means the node must
	// stall and retry. pkt.Size must be set (use PacketSize) and pkt.Dst be
	// a node of the mesh; Inject panics otherwise.
	Inject(node int, pkt *Packet) bool
	// Step advances the fabric by one NoC cycle.
	Step()
	// Now returns the fabric's current cycle.
	Now() int64
	// SetEjectHandler installs the packet-delivery callback.
	SetEjectHandler(h func(node int, pkt *Packet, now int64))
	// InFlight returns packets accepted but not yet delivered.
	InFlight() int
	// Stats returns the fabric's statistics (finalised occupancy included).
	Stats() *NetStats
	// ResetStats clears the measurement counters (end of warmup) while
	// preserving all in-flight state.
	ResetStats()
	// GetPacket returns a zeroed Packet from the fabric's freelist. Callers
	// that do not manage packet lifetimes may ignore it and allocate
	// Packets directly; the freelist is an optimisation, not a requirement.
	GetPacket() *Packet
	// PutPacket releases a packet to the freelist. Only call it for packets
	// obtained from GetPacket, and only once no reference remains (after
	// the ejection callback returned, or after Inject rejected it).
	PutPacket(*Packet)
	// SetTracer installs a lifecycle tracer sampling every sampleEvery-th
	// packet (see tracer.go for the events each fabric emits).
	SetTracer(tr Tracer, sampleEvery uint64)
	// RecoveryStats returns the cumulative fault-recovery counters (zero on
	// fabrics without the recovery layer).
	RecoveryStats() RecoveryStats
	// NIOccupancyAvgFlits returns the mean time-weighted injection-queue
	// occupancy in flits over the NIs that queued traffic (Fig 6).
	NIOccupancyAvgFlits() float64
	// CheckInvariants validates the fabric's internal bookkeeping. It is
	// O(buffers): for tests and the watchdog's invariant gate.
	CheckInvariants() error
	// OldestPacketAge returns the age in cycles of the oldest packet the
	// fabric holds, or 0 when it holds none. It allocates nothing.
	OldestPacketAge() int64
	// StateSnapshot captures the fabric's non-quiescent state for
	// diagnostics: the cycle, the in-flight count, the oldest packets and,
	// on the mesh, every non-idle router.
	StateSnapshot() StateDump
}

// fabricBase is the state every Fabric keeps the same way — configuration,
// clock, statistics, in-flight count, packet numbering, packet pool, eject
// handler and tracer — with the Fabric methods that only read it. Each
// fabric embeds it and keeps its own Inject, Step and ResetStats.
type fabricBase struct {
	cfg      Config
	now      int64
	inFlight int
	stats    NetStats
	// recovery holds the fault-recovery protocol counters (recovery.go);
	// kept off NetStats so encoded Results stay byte-identical to
	// pre-recovery goldens. Never reset — consumers take deltas. Only the
	// mesh moves them.
	recovery RecoveryStats
	// lastPktID is the ID handed to the most recently numbered packet
	// (1, 2, 3, ...; IDs are not part of encoded Results).
	lastPktID    uint64
	pool         pktPool
	ejectHandler func(node int, pkt *Packet, now int64)

	// tracer receives lifecycle events for every traceEvery-th packet (see
	// SetTracer); nil disables tracing at the cost of a nil check per
	// event site.
	tracer     Tracer
	traceEvery uint64
}

// Now returns the current cycle.
func (b *fabricBase) Now() int64 { return b.now }

// SetEjectHandler installs the packet-delivery callback.
func (b *fabricBase) SetEjectHandler(h func(node int, pkt *Packet, now int64)) {
	b.ejectHandler = h
}

// InFlight returns packets accepted but not yet delivered.
func (b *fabricBase) InFlight() int { return b.inFlight }

// Stats returns the fabric statistics.
func (b *fabricBase) Stats() *NetStats { return &b.stats }

// GetPacket returns a zeroed Packet from the fabric's freelist.
func (b *fabricBase) GetPacket() *Packet { return b.pool.get() }

// PutPacket releases a delivered or rejected packet to the freelist.
func (b *fabricBase) PutPacket(p *Packet) { b.pool.put(p) }

// RecoveryStats returns the cumulative recovery counters.
func (b *fabricBase) RecoveryStats() RecoveryStats { return b.recovery }

// SetTracer installs tr and samples every sampleEvery-th packet by ID
// (1 traces every packet; 0 or a nil tracer disables tracing). Tracing is
// observation only: it never alters a routing, allocation or timing
// decision, so a traced run's Result is bit-identical to an untraced one.
func (b *fabricBase) SetTracer(tr Tracer, sampleEvery uint64) {
	if tr == nil || sampleEvery == 0 {
		tr, sampleEvery = nil, 0
	}
	b.tracer, b.traceEvery = tr, sampleEvery
}

// checkPacket panics unless pkt is one every fabric can carry: a size a
// flit's seq can index and a destination inside the mesh.
func (b *fabricBase) checkPacket(pkt *Packet) {
	if pkt.Size <= 0 {
		panic("noc: packet has no size; use PacketSize")
	}
	if pkt.Size > maxPacketFlits {
		panic(fmt.Sprintf("noc: packet of %d flits exceeds the %d-flit maximum", pkt.Size, maxPacketFlits))
	}
	if pkt.Dst < 0 || pkt.Dst >= b.cfg.Mesh.Nodes() {
		panic(fmt.Sprintf("noc: destination %d out of range", pkt.Dst))
	}
}

// number gives pkt the next packet ID unless it already carries one (a
// retransmission keeps its own).
func (b *fabricBase) number(pkt *Packet) {
	if pkt.ID == 0 {
		b.lastPktID++
		pkt.ID = b.lastPktID
	}
}

// accept counts pkt, accepted from node, into the fabric: in flight, the
// per-type injection counters, and — when the tracer samples its ID — the
// NI enqueue event that opens its traced lifecycle.
func (b *fabricBase) accept(node int, pkt *Packet) {
	b.inFlight++
	b.stats.PacketsInjected[pkt.Type]++
	b.stats.FlitsInjected[pkt.Type] += uint64(pkt.Size)
	if b.tracer != nil && pkt.ID%b.traceEvery == 0 {
		pkt.traced = true
		b.tracer.PacketEvent(pkt.ID, pkt.Type, pkt.Src, pkt.Dst, node, TraceNIEnqueue, b.now)
	}
}

// trace emits stage at node for pkt when the tracer sampled it.
func (b *fabricBase) trace(pkt *Packet, node int, stage TraceStage, cycle int64) {
	if b.tracer != nil && pkt.traced {
		b.tracer.PacketEvent(pkt.ID, pkt.Type, pkt.Src, pkt.Dst, node, stage, cycle)
	}
}

// deliver retires pkt at node: latency statistics, the in-flight count, the
// eject event, then the handler — last, because it may recycle the packet.
func (b *fabricBase) deliver(node int, pkt *Packet, now int64) {
	b.stats.recordEject(pkt, now)
	b.inFlight--
	b.trace(pkt, node, TraceEject, now)
	if b.ejectHandler != nil {
		b.ejectHandler(node, pkt, now)
	}
}

// oldestPackets sorts pkts by CreatedAt (oldest first, packet ID
// tie-break) and returns the first k.
func oldestPackets(pkts []*Packet, k int) []*Packet {
	slices.SortFunc(pkts, func(a, b *Packet) int {
		return cmp.Or(cmp.Compare(a.CreatedAt, b.CreatedAt), cmp.Compare(a.ID, b.ID))
	})
	return pkts[:min(k, len(pkts))]
}

// snapshot returns the state every fabric reports: the cycle, the in-flight
// count and the five oldest of the packets it holds.
func (b *fabricBase) snapshot(held []*Packet) StateDump {
	d := StateDump{Cycle: b.now, InFlight: b.inFlight}
	for _, p := range oldestPackets(held, 5) {
		d.OldestPackets = append(d.OldestPackets, b.packetDump(p))
	}
	return d
}

// oldestArrival returns the minimum of oldest and the CreatedAt of every
// packet in as.
func oldestArrival(as []overlayArrival, oldest int64) int64 {
	for _, a := range as {
		oldest = min(oldest, a.pkt.CreatedAt)
	}
	return oldest
}

// packetDump converts one packet header at the current cycle.
func (b *fabricBase) packetDump(p *Packet) PacketDump {
	return PacketDump{
		ID:        p.ID,
		Type:      p.Type.String(),
		Src:       p.Src,
		Dst:       p.Dst,
		Size:      p.Size,
		Priority:  p.Priority,
		CreatedAt: p.CreatedAt,
		Age:       b.now - p.CreatedAt,
	}
}

// peakWindow returns the p-th percentile (0..100) of per-100-cycle packet
// injection counts, the measurement behind eq. (1): §4.2 sizes the speedup
// S so that 95% of peak windows are satisfied.
func peakWindow(windows []uint32, p float64) float64 {
	if len(windows) == 0 {
		return 0
	}
	sorted := slices.Clone(windows)
	slices.Sort(sorted)
	return float64(sorted[int(p/100*float64(len(sorted)-1))])
}
