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
	// stall and retry. pkt.Size must be set (use PacketSize) to at most
	// Config.LongPacketFlits, so the packet fits one VC, and pkt.Dst be a
	// node of the mesh; Inject panics otherwise.
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
	// SetTracer installs a tracer that sees every sampleEvery-th packet
	// by ID at its delivery.
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

// Tracer observes sampled packets at delivery. Delivered is called
// synchronously from a fabric's Step, before the eject handler, with the
// packet's four timestamps set (CreatedAt, InjectedAt, ArrivedAt,
// EjectedAt); it must not block, touch the fabric or keep pkt, which the
// handler may recycle. Packets arrive in delivery order. A retransmitted
// packet is seen once, at its clean delivery.
type Tracer interface {
	Delivered(pkt *Packet)
}

// fabricBase is the state every Fabric keeps the same way — configuration,
// clock, statistics, in-flight count, packet numbering, packet pool, eject
// handler and tracer — with the Fabric methods that only read it. Each
// fabric embeds it and keeps its own Inject, Step and ResetStats.
type fabricBase struct {
	cfg      Config
	longPkt  int // cfg.LongPacketFlits(): every VC's depth, the longest packet
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

	// tracer sees every traceEvery-th packet at delivery (see SetTracer);
	// nil disables tracing at the cost of one nil check per delivery.
	tracer     Tracer
	traceEvery uint64
}

// reuseBase returns a fabric's base at cycle 0 for cfg (validated), which
// keeps b's packet freelist: every packet on it is zeroed before reuse.
func (b *fabricBase) reuseBase(cfg Config) fabricBase {
	return fabricBase{cfg: cfg, longPkt: cfg.LongPacketFlits(), pool: b.pool}
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
// (1 traces every packet; 0 or a nil tracer disables tracing). A tracer
// installed mid-run sees every sampled packet delivered from then on. Tracing
// is observation only: it never alters a routing, allocation or timing
// decision, so a traced run's Result is bit-identical to an untraced one.
func (b *fabricBase) SetTracer(tr Tracer, sampleEvery uint64) {
	if tr == nil || sampleEvery == 0 {
		tr, sampleEvery = nil, 0
	}
	b.tracer, b.traceEvery = tr, sampleEvery
}

// checkPacket panics unless pkt is one every fabric can carry: a size that
// fits one VC (at most a long packet, which Config.Validate bounds to what a
// flit's seq can index) and a destination inside the mesh.
func (b *fabricBase) checkPacket(pkt *Packet) {
	if pkt.Size <= 0 {
		panic("noc: packet has no size; use PacketSize")
	}
	if pkt.Size > b.longPkt {
		panic(fmt.Sprintf("noc: packet of %d flits is longer than a VC (%d flits)", pkt.Size, b.longPkt))
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

// accept counts pkt into the fabric: in flight and the per-type injection
// counters.
func (b *fabricBase) accept(pkt *Packet) {
	b.inFlight++
	b.stats.PacketsInjected[pkt.Type]++
	b.stats.FlitsInjected[pkt.Type] += uint64(pkt.Size)
}

// deliver retires pkt at node: latency statistics (which stamp EjectedAt),
// the in-flight count, the tracer when it samples pkt's ID, then the
// handler — last, because it may recycle the packet.
func (b *fabricBase) deliver(node int, pkt *Packet, now int64) {
	b.stats.recordEject(pkt, now)
	b.inFlight--
	if b.tracer != nil && pkt.ID%b.traceEvery == 0 {
		b.tracer.Delivered(pkt)
	}
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

// overlayArrival is a packet due at a destination at cycle arriveAt.
type overlayArrival struct {
	pkt      *Packet
	arriveAt int64
	drained  int // flits already drained by DA2Mesh's ejector
}

// oldestArrival returns the minimum of oldest and the CreatedAt of every
// packet in as.
func oldestArrival(as []overlayArrival, oldest int64) int64 {
	for _, a := range as {
		oldest = min(oldest, a.pkt.CreatedAt)
	}
	return oldest
}

// delayLine is the wire of the two non-mesh fabrics: it holds packets in
// flight, each until its arrival cycle, with no contention.
type delayLine struct {
	held []overlayArrival // unsorted
	due  []overlayArrival // take's scratch
}

// reset returns l emptied, over the same storage.
func (l delayLine) reset() delayLine {
	return delayLine{held: l.held[:0], due: l.due[:0]}
}

// fitRows sets *rows to n empty rows, each keeping the backing array it
// had.
func fitRows[T any](rows *[][]T, n int) {
	if cap(*rows) < n {
		*rows = make([][]T, n)
		return
	}
	*rows = (*rows)[:n]
	for i := range *rows {
		(*rows)[i] = (*rows)[i][:0]
	}
}

// add puts pkt on the line, due at cycle arriveAt.
func (l *delayLine) add(pkt *Packet, arriveAt int64) {
	l.held = append(l.held, overlayArrival{pkt: pkt, arriveAt: arriveAt})
}

// take removes the packets due by now and returns them in (arriveAt, ID)
// order — a unique key, so the order is fully determined. The slice is
// scratch that the next take reuses.
func (l *delayLine) take(now int64) []overlayArrival {
	kept, due := l.held[:0], l.due[:0]
	for _, a := range l.held {
		if a.arriveAt <= now {
			due = append(due, a)
		} else {
			kept = append(kept, a)
		}
	}
	l.held, l.due = kept, due
	slices.SortFunc(due, func(a, b overlayArrival) int {
		return cmp.Or(cmp.Compare(a.arriveAt, b.arriveAt), cmp.Compare(a.pkt.ID, b.pkt.ID))
	})
	return due
}

// oldest returns the minimum of oldest and the CreatedAt of every held
// packet.
func (l *delayLine) oldest(oldest int64) int64 { return oldestArrival(l.held, oldest) }

// appendPackets appends the held packets to dst.
func (l *delayLine) appendPackets(dst []*Packet) []*Packet {
	for _, a := range l.held {
		dst = append(dst, a.pkt)
	}
	return dst
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
