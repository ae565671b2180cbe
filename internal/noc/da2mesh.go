package noc

import "sort"

// DA2Mesh is a behavioural model of the DA2mesh overlay of Kim et al. [20]:
// each injecting node owns dedicated narrow per-destination channels, so
// packets experience hop latency but no in-network contention. What remains
// — and what ARI targets (paper Fig 16) — is serialisation at the injection
// lanes and contention at the ejection NI.
//
// Modelled behaviour:
//   - Injection: the node's NI supplies lanes exactly like the mesh NIs
//     (baseline: one FIFO, one flit/cycle; ARI split: one queue+lane per
//     VC, up to VCs flits/cycle).
//   - Flight: a packet whose tail left its lane at cycle t is handed to the
//     destination's ejection queue at t + Hops(src,dst) (pipelined narrow
//     channel, one flit per cycle per lane).
//   - Ejection: the destination drains EjectRate flits/cycle in arrival
//     order; a lane will not start a packet toward a destination whose
//     backlog exceeds the overlay window (2 long packets), which stands in
//     for the plane's finite buffering.
type DA2Mesh struct {
	cfg   Config
	now   int64
	stats NetStats

	nis      []*overlayNI
	backlog  []int // per destination, flits queued or in flight toward it
	ejectQ   [][]overlayArrival
	inflight []overlayArrival // packets in flight, unsorted

	inFlight     int
	nextPktID    uint64
	ejectHandler func(node int, pkt *Packet, now int64)

	// scan selects the scan-everything loops (UseScanReference); the default
	// skips nodes with no queued or arriving flits — provably a no-op for
	// them, so both modes are bit-identical.
	scan bool
	pool pktPool
}

var _ Fabric = (*DA2Mesh)(nil)

// overlayArrival is a packet due at a destination ejection queue.
type overlayArrival struct {
	pkt      *Packet
	arriveAt int64
	drained  int // flits already drained by the ejector
}

// overlayLane is one narrow injection lane streaming whole packets.
type overlayLane struct {
	q         *flitQueue
	streaming *Packet
	sent      int
}

// overlayNI is the injection interface of one node on the overlay.
type overlayNI struct {
	node  int
	mode  NIMode
	lanes []*overlayLane
	// FIFO modes share one queue (lane 0's) and stream one flit/cycle in
	// total; split mode gives each lane its own queue and link.
	offeredAt int64
	everHeld  bool
	occupancy float64 // running time-sum of queued flits
	occCycles int64
	queued    int
	pick      int
}

// overlayWindowPackets bounds the per-destination backlog (in long packets)
// before lanes stop starting new packets toward it.
const overlayWindowPackets = 2

// NewDA2Mesh builds the overlay fabric from cfg (same Config schema as the
// mesh network; Routing is ignored).
func NewDA2Mesh(cfg Config) (*DA2Mesh, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	d := &DA2Mesh{cfg: cfg}
	nodes := cfg.Mesh.Nodes()
	d.backlog = make([]int, nodes)
	d.ejectQ = make([][]overlayArrival, nodes)
	d.nis = make([]*overlayNI, nodes)
	injLinks := 0
	for id := 0; id < nodes; id++ {
		nc := cfg.node(id)
		oni := &overlayNI{node: id, mode: nc.NI, offeredAt: -1}
		lanes := 1
		if nc.NI == NISplit {
			lanes = cfg.VCs
		} else if nc.NI == NIMultiPort {
			lanes = nc.injPorts()
		}
		per := cfg.NIQueueFlits
		if nc.NI == NISplit {
			per = cfg.NIQueueFlits / lanes
			if per < cfg.LongPacketFlits() {
				per = cfg.LongPacketFlits()
			}
		}
		for l := 0; l < lanes; l++ {
			oni.lanes = append(oni.lanes, &overlayLane{q: newFlitQueue(per)})
		}
		d.nis[id] = oni
		injLinks += lanes
	}
	d.stats.InjLinks = injLinks
	d.stats.MeshLinks = 0
	return d, nil
}

// Now returns the current cycle.
func (d *DA2Mesh) Now() int64 { return d.now }

// SetEjectHandler installs the packet-delivery callback.
func (d *DA2Mesh) SetEjectHandler(h func(node int, pkt *Packet, now int64)) {
	d.ejectHandler = h
}

// InFlight returns packets accepted but not yet delivered.
func (d *DA2Mesh) InFlight() int { return d.inFlight }

// Stats returns the fabric statistics.
func (d *DA2Mesh) Stats() *NetStats { return &d.stats }

// UseScanReference switches the overlay to its scan-everything loops (the
// test oracle; see Network.UseScanReference). Call before the first Step.
func (d *DA2Mesh) UseScanReference() { d.scan = true }

// ResetStats clears measurement counters (end of warmup).
func (d *DA2Mesh) ResetStats() {
	injLinks := d.stats.InjLinks
	d.stats = NetStats{InjLinks: injLinks}
	for _, ni := range d.nis {
		ni.occupancy = 0
		ni.occCycles = 0
		ni.everHeld = ni.queued > 0
	}
}

// CanInject reports whether node's overlay NI can take pkt this cycle.
func (d *DA2Mesh) CanInject(node int, pkt *Packet) bool {
	ni := d.nis[node]
	if ni.offeredAt == d.now {
		return false
	}
	return ni.pickLane(pkt) >= 0
}

// Inject hands pkt to node's overlay NI.
func (d *DA2Mesh) Inject(node int, pkt *Packet) bool {
	ni := d.nis[node]
	if ni.offeredAt == d.now {
		d.stats.NIFullRejects++
		return false
	}
	lane := ni.pickLane(pkt)
	if lane < 0 {
		d.stats.NIFullRejects++
		return false
	}
	pkt.Src = node
	if pkt.ID == 0 {
		d.nextPktID++
		pkt.ID = d.nextPktID
	}
	pkt.CreatedAt = d.now
	ni.offeredAt = d.now
	q := ni.lanes[lane].q
	for s := 0; s < pkt.Size; s++ {
		q.push(flit{pkt: pkt, seq: s})
	}
	ni.queued += pkt.Size
	ni.everHeld = true
	ni.pick = (lane + 1) % len(ni.lanes)
	d.inFlight++
	d.stats.PacketsInjected[pkt.Type]++
	d.stats.FlitsInjected[pkt.Type] += uint64(pkt.Size)
	return true
}

// pickLane returns the least-occupied lane queue with room for the packet
// (FIFO modes always use lane 0's shared queue), or -1.
func (ni *overlayNI) pickLane(pkt *Packet) int {
	if ni.mode != NISplit {
		// Single shared queue; MultiPort's extra lanes matter at drain.
		if ni.lanes[0].q.free() >= pkt.Size {
			return 0
		}
		return -1
	}
	best, bestLen := -1, 0
	n := len(ni.lanes)
	for k := 0; k < n; k++ {
		l := (ni.pick + k) % n
		q := ni.lanes[l].q
		if q.free() < pkt.Size {
			continue
		}
		if best == -1 || q.len() < bestLen {
			best, bestLen = l, q.len()
		}
	}
	return best
}

// Step advances the overlay one cycle.
func (d *DA2Mesh) Step() {
	d.deliverArrivals()
	d.streamLanes()
	d.drainEjectors()
	for _, ni := range d.nis {
		if ni.everHeld {
			ni.occupancy += float64(ni.queued)
			ni.occCycles++
		}
	}
	d.now++
	d.stats.Cycles++
}

// streamLanes advances every injection lane by its per-cycle flit budget.
// Event-driven mode skips NIs with nothing queued: their lanes are all
// empty, so the loop body is a no-op for them.
func (d *DA2Mesh) streamLanes() {
	window := overlayWindowPackets * d.cfg.LongPacketFlits()
	for _, ni := range d.nis {
		if !d.scan && ni.queued == 0 {
			continue
		}
		budget := len(ni.lanes) // 1 flit per lane per cycle
		if ni.mode != NISplit {
			budget = 1 // shared narrow supply (baseline & MultiPort NI limit)
		}
		for l := 0; l < len(ni.lanes) && budget > 0; l++ {
			lane := ni.lanes[l]
			if lane.q.empty() {
				continue
			}
			f := lane.q.front()
			if f.isHead() && lane.streaming == nil {
				if d.backlog[f.pkt.Dst] > window {
					continue // destination plane buffers full
				}
				lane.streaming = f.pkt
				lane.sent = 0
				f.pkt.InjectedAt = d.now
				d.backlog[f.pkt.Dst] += f.pkt.Size
			}
			if lane.streaming == nil {
				continue
			}
			lane.q.pop()
			ni.queued--
			lane.sent++
			budget--
			d.stats.InjLinkFlits++
			if f.isTail() {
				hops := d.cfg.Mesh.Hops(f.pkt.Src, f.pkt.Dst)
				d.inflight = append(d.inflight, overlayArrival{
					pkt:      f.pkt,
					arriveAt: d.now + int64(hops),
				})
				lane.streaming = nil
			}
		}
	}
}

// deliverArrivals moves due in-flight packets into their destination
// ejection queues, ordered deterministically.
func (d *DA2Mesh) deliverArrivals() {
	due := d.inflight[:0]
	var arrived []overlayArrival
	for _, a := range d.inflight {
		if a.arriveAt <= d.now {
			arrived = append(arrived, a)
		} else {
			due = append(due, a)
		}
	}
	d.inflight = due
	sort.Slice(arrived, func(i, j int) bool {
		if arrived[i].arriveAt != arrived[j].arriveAt {
			return arrived[i].arriveAt < arrived[j].arriveAt
		}
		return arrived[i].pkt.ID < arrived[j].pkt.ID
	})
	for _, a := range arrived {
		d.ejectQ[a.pkt.Dst] = append(d.ejectQ[a.pkt.Dst], a)
	}
}

// drainEjectors consumes EjectRate flits/cycle at every destination.
// Event-driven mode skips destinations with an empty ejection queue (the
// budget loop would exit immediately for them).
func (d *DA2Mesh) drainEjectors() {
	for node := range d.ejectQ {
		q := d.ejectQ[node]
		if !d.scan && len(q) == 0 {
			continue
		}
		budget := d.cfg.EjectRate
		for budget > 0 && len(q) > 0 {
			a := &q[0]
			take := a.pkt.Size - a.drained
			if take > budget {
				take = budget
			}
			a.drained += take
			budget -= take
			d.stats.EjectFlits += uint64(take)
			d.backlog[node] -= take
			if a.drained == a.pkt.Size {
				d.stats.recordEject(a.pkt, d.now)
				d.inFlight--
				if d.ejectHandler != nil {
					d.ejectHandler(node, a.pkt, d.now)
				}
				q = q[1:]
			}
		}
		d.ejectQ[node] = q
	}
}

// GetPacket returns a zeroed packet from the fabric's freelist.
func (d *DA2Mesh) GetPacket() *Packet { return d.pool.get() }

// PutPacket recycles a delivered packet into the freelist.
func (d *DA2Mesh) PutPacket(p *Packet) { d.pool.put(p) }

// NIOccupancyAvgFlits returns the mean time-averaged lane-queue occupancy
// over injecting NIs.
func (d *DA2Mesh) NIOccupancyAvgFlits() float64 {
	var sum float64
	var cnt int
	for _, ni := range d.nis {
		if !ni.everHeld || ni.occCycles == 0 {
			continue
		}
		sum += ni.occupancy / float64(ni.occCycles)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
