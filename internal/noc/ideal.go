package noc

import (
	"cmp"
	"slices"
	"sort"
)

// IdealFabric is a reply network with unlimited bandwidth: every offered
// packet is accepted immediately and delivered after its minimal hop
// latency, with no serialisation or contention anywhere. The paper uses
// exactly this abstraction to measure the *ideal packet injection rate* of
// eq. (1) — the rate an MC would inject at if the consumption side were
// perfect (§4.2) — which then sizes the crossbar speedup.
type IdealFabric struct {
	cfg   Config
	now   int64
	stats NetStats

	inflight     []overlayArrival
	due          []overlayArrival // Step's scratch
	inFlight     int
	nextPktID    uint64
	ejectHandler func(node int, pkt *Packet, now int64)

	// Per-node injection counts per 100-cycle window, for the eq. (1)
	// peak-rate measurement.
	windowCount []uint32
	windowStart int64
	Windows     [][]uint32 // [node][window]

	pool pktPool
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
		cfg:         cfg,
		windowCount: make([]uint32, nodes),
		Windows:     make([][]uint32, nodes),
	}, nil
}

// Now returns the current cycle.
func (f *IdealFabric) Now() int64 { return f.now }

// SetEjectHandler installs the delivery callback.
func (f *IdealFabric) SetEjectHandler(h func(node int, pkt *Packet, now int64)) {
	f.ejectHandler = h
}

// InFlight returns packets accepted but not yet delivered.
func (f *IdealFabric) InFlight() int { return f.inFlight }

// Stats returns the fabric statistics.
func (f *IdealFabric) Stats() *NetStats { return &f.stats }

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

// Inject accepts the packet unconditionally.
func (f *IdealFabric) Inject(node int, pkt *Packet) bool {
	pkt.Src = node
	if pkt.ID == 0 {
		f.nextPktID++
		pkt.ID = f.nextPktID
	}
	pkt.CreatedAt = f.now
	pkt.InjectedAt = f.now
	hops := f.cfg.Mesh.Hops(node, pkt.Dst)
	f.inflight = append(f.inflight, overlayArrival{
		pkt:      pkt,
		arriveAt: f.now + int64(hops) + int64(pkt.Size),
	})
	f.inFlight++
	f.windowCount[node]++
	f.stats.PacketsInjected[pkt.Type]++
	f.stats.FlitsInjected[pkt.Type] += uint64(pkt.Size)
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
		f.stats.recordEject(a.pkt, f.now)
		f.inFlight--
		if f.ejectHandler != nil {
			f.ejectHandler(a.pkt.Dst, a.pkt, f.now)
		}
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

// GetPacket returns a zeroed packet from the fabric's freelist.
func (f *IdealFabric) GetPacket() *Packet { return f.pool.get() }

// PutPacket recycles a delivered packet into the freelist.
func (f *IdealFabric) PutPacket(p *Packet) { f.pool.put(p) }

// PeakWindow returns the p-th percentile (0..100) of per-100-cycle packet
// injection counts of the given node.
func (f *IdealFabric) PeakWindow(node int, p float64) float64 {
	ws := f.Windows[node]
	if len(ws) == 0 {
		return 0
	}
	sorted := make([]uint32, len(ws))
	copy(sorted, ws)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	return float64(sorted[idx])
}
