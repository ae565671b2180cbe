package noc

import (
	"cmp"
	"fmt"
	"slices"
)

// IdealFabric is a reply network with unlimited bandwidth: every offered
// packet is accepted immediately and delivered after its minimal hop
// latency, with no serialisation or contention anywhere. The paper uses
// exactly this abstraction to measure the *ideal packet injection rate* of
// eq. (1) — the rate an MC would inject at if the consumption side were
// perfect (§4.2) — which then sizes the crossbar speedup.
type IdealFabric struct {
	fabricBase

	inflight []overlayArrival
	due      []overlayArrival // Step's scratch

	// Per-node injection counts per 100-cycle window, for the eq. (1)
	// peak-rate measurement.
	windowCount []uint32
	windowStart int64
	Windows     [][]uint32 // [node][window]
}

var _ Fabric = (*IdealFabric)(nil)

// NewIdealFabric builds an unlimited-bandwidth fabric over cfg's mesh.
func NewIdealFabric(cfg Config) (*IdealFabric, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	nodes := cfg.Mesh.Nodes()
	return &IdealFabric{
		fabricBase:  fabricBase{cfg: cfg, longPkt: cfg.LongPacketFlits()},
		windowCount: make([]uint32, nodes),
		Windows:     make([][]uint32, nodes),
	}, nil
}

// ResetStats clears measurement counters.
func (f *IdealFabric) ResetStats() {
	f.stats = NetStats{}
	for i := range f.Windows {
		f.Windows[i] = f.Windows[i][:0]
		f.windowCount[i] = 0
	}
	f.windowStart = f.now
}

// CanInject always reports true: consumption is perfect.
func (f *IdealFabric) CanInject(node int, pkt *Packet) bool { return true }

// Inject accepts the packet unconditionally: it is enqueued and injected in
// the same cycle.
func (f *IdealFabric) Inject(node int, pkt *Packet) bool {
	f.checkPacket(pkt)
	pkt.Src = node
	f.number(pkt)
	pkt.CreatedAt = f.now
	pkt.InjectedAt = f.now
	hops := f.cfg.Mesh.Hops(node, pkt.Dst)
	f.inflight = append(f.inflight, overlayArrival{
		pkt:      pkt,
		arriveAt: f.now + int64(hops) + int64(pkt.Size),
	})
	f.windowCount[node]++
	f.accept(node, pkt)
	f.trace(pkt, node, TraceInject, f.now)
	return true
}

// Step advances one cycle, delivering due packets in ID order (IDs are
// unique, so the order is fully determined). The due packets are gathered
// into a scratch slice reused every cycle.
func (f *IdealFabric) Step() {
	kept, due := f.inflight[:0], f.due[:0]
	for _, a := range f.inflight {
		if a.arriveAt <= f.now {
			due = append(due, a)
		} else {
			kept = append(kept, a)
		}
	}
	f.inflight, f.due = kept, due
	slices.SortFunc(due, func(a, b overlayArrival) int { return cmp.Compare(a.pkt.ID, b.pkt.ID) })
	for _, a := range due {
		f.deliver(a.pkt.Dst, a.pkt, f.now)
	}
	f.now++
	f.stats.Cycles++
	if f.now-f.windowStart >= 100 {
		for n := range f.windowCount {
			f.Windows[n] = append(f.Windows[n], f.windowCount[n])
			f.windowCount[n] = 0
		}
		f.windowStart = f.now
	}
}

// NIOccupancyAvgFlits is 0: nothing ever queues at an ideal NI.
func (f *IdealFabric) NIOccupancyAvgFlits() float64 { return 0 }

// CheckInvariants validates that every packet in flight is counted and none
// is overdue (Step delivers each at its arrival cycle).
func (f *IdealFabric) CheckInvariants() error {
	if len(f.inflight) != f.inFlight {
		return fmt.Errorf("%d packets held != %d in flight", len(f.inflight), f.inFlight)
	}
	for _, a := range f.inflight {
		if a.arriveAt < f.now {
			return fmt.Errorf("packet %d overdue: due at %d, now %d", a.pkt.ID, a.arriveAt, f.now)
		}
	}
	return nil
}

// OldestPacketAge returns the age of the oldest packet in flight.
func (f *IdealFabric) OldestPacketAge() int64 { return f.now - oldestArrival(f.inflight, f.now) }

// StateSnapshot reports the cycle, the in-flight count and the oldest
// packets.
func (f *IdealFabric) StateSnapshot() StateDump {
	held := make([]*Packet, len(f.inflight))
	for i, a := range f.inflight {
		held[i] = a.pkt
	}
	return f.snapshot(held)
}

// PeakWindow returns the p-th percentile (0..100) of per-100-cycle packet
// injection counts of the given node (eq. (1), see peakWindow).
func (f *IdealFabric) PeakWindow(node int, p float64) float64 {
	return peakWindow(f.Windows[node], p)
}
