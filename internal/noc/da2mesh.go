package noc

import "fmt"

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
//   - Ejection: the destination drains one flit per cycle in arrival
//     order; a lane will not start a packet toward a destination whose
//     backlog exceeds the overlay window (2 long packets), which stands in
//     for the plane's finite buffering.
type DA2Mesh struct {
	fabricBase

	nis      []overlayNI
	backlog  []int // per destination, flits queued or in flight toward it
	ejectQ   [][]overlayArrival
	inflight delayLine // packets whose tail left its lane

	// pkts holds every packet with a flit still queued on a lane; the lane
	// rings name it by its handle.
	pkts pktTable
	// handles backs every lane's ring.
	handles []uint32
}

var _ Fabric = (*DA2Mesh)(nil)

// overlayLane is one narrow injection lane streaming whole packets.
type overlayLane struct {
	q pktRing // capacity overlayNI.laneCap, in the overlay's handle slab
	// size is the size of the packet streaming off the lane, 0 while none
	// is.
	size int32
}

// overlayNI is the injection interface of one node on the overlay.
type overlayNI struct {
	node    int
	mode    NIMode
	lanes   []overlayLane
	laneCap int
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

// overlayLanes returns the lanes of an overlay NI of architecture nc and the
// flits each lane's ring holds: NIQueueFlits in the FIFO modes (whose traffic
// all queues on lane 0), a mesh split queue's share in split mode.
func overlayLanes(cfg *Config, nc NodeConfig) (lanes, per int) {
	switch nc.NI {
	case NISplit:
		return cfg.VCs, splitQueueFlits(cfg)
	case NIMultiPort:
		return nc.Ports(), cfg.NIQueueFlits
	}
	return 1, cfg.NIQueueFlits
}

// NewDA2Mesh builds the overlay fabric from cfg (same Config schema as the
// mesh network; Routing is ignored).
func NewDA2Mesh(cfg Config) (*DA2Mesh, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	d := &DA2Mesh{fabricBase: fabricBase{cfg: cfg, longPkt: cfg.LongPacketFlits()}}
	nodes := cfg.Mesh.Nodes()
	d.backlog = make([]int, nodes)
	d.ejectQ = make([][]overlayArrival, nodes)
	d.nis = make([]overlayNI, nodes)
	b := cfg.buffers()
	laneSlab := make([]overlayLane, b.lanes)
	d.handles = make([]uint32, b.laneFlits)
	injLinks, off := 0, 0
	cfg.eachNode(func(id int, nc NodeConfig, _ bool) {
		l, per := overlayLanes(&cfg, nc)
		oni := &d.nis[id]
		*oni = overlayNI{node: id, mode: nc.NI, offeredAt: -1, lanes: carve(&laneSlab, l), laneCap: per}
		for i := range oni.lanes {
			oni.lanes[i].q.off = int32(off)
			off += per
		}
		injLinks += len(oni.lanes)
	})
	d.stats.InjLinks = injLinks
	d.stats.MeshLinks = 0
	return d, nil
}

// ResetStats clears measurement counters (end of warmup).
func (d *DA2Mesh) ResetStats() {
	injLinks := d.stats.InjLinks
	d.stats = NetStats{InjLinks: injLinks}
	for i := range d.nis {
		ni := &d.nis[i]
		ni.occupancy = 0
		ni.occCycles = 0
		ni.everHeld = ni.queued > 0
	}
}

// CanInject reports whether node's overlay NI can take pkt this cycle.
func (d *DA2Mesh) CanInject(node int, pkt *Packet) bool {
	ni := &d.nis[node]
	if ni.offeredAt == d.now {
		return false
	}
	return ni.pickLane(pkt) >= 0
}

// Inject hands pkt to node's overlay NI. The packet is numbered only once
// the NI accepts it.
func (d *DA2Mesh) Inject(node int, pkt *Packet) bool {
	d.checkPacket(pkt)
	ni := &d.nis[node]
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
	d.number(pkt)
	pkt.CreatedAt = d.now
	ni.offeredAt = d.now
	ni.lanes[lane].q.pushPacket(d.handles, ni.laneCap, d.pkts.add(pkt), pkt.Size)
	ni.queued += pkt.Size
	ni.everHeld = true
	ni.pick = (lane + 1) % len(ni.lanes)
	d.accept(pkt)
	return true
}

// pickLane returns the least-occupied lane queue with room for the packet
// (FIFO modes always use lane 0's shared queue), or -1.
func (ni *overlayNI) pickLane(pkt *Packet) int {
	if ni.mode != NISplit {
		// Single shared queue; MultiPort's extra lanes matter at drain.
		if ni.lanes[0].q.free(ni.laneCap) >= pkt.Size {
			return 0
		}
		return -1
	}
	best, bestLen := -1, 0
	n := len(ni.lanes)
	for k := 0; k < n; k++ {
		l := (ni.pick + k) % n
		q := &ni.lanes[l].q
		if q.free(ni.laneCap) < pkt.Size {
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
	for i := range d.nis {
		if ni := &d.nis[i]; ni.everHeld {
			ni.occupancy += float64(ni.queued)
			ni.occCycles++
		}
	}
	d.now++
	d.stats.Cycles++
}

// streamLanes advances every injection lane by its per-cycle flit budget.
// It skips NIs with nothing queued: their lanes are all empty, so the loop
// body would be a no-op for them.
func (d *DA2Mesh) streamLanes() {
	window := overlayWindowPackets * d.cfg.LongPacketFlits()
	for i := range d.nis {
		ni := &d.nis[i]
		if ni.queued == 0 {
			continue
		}
		budget := len(ni.lanes) // 1 flit per lane per cycle
		if ni.mode != NISplit {
			budget = 1 // shared narrow supply (baseline & MultiPort NI limit)
		}
		for l := 0; l < len(ni.lanes) && budget > 0; l++ {
			lane := &ni.lanes[l]
			if lane.q.empty() {
				continue
			}
			if lane.size == 0 {
				// The lane holds whole packets, so its front flit is a head.
				pkt := d.pkts.of(lane.q.front(d.handles).h)
				if d.backlog[pkt.Dst] > window {
					continue // destination plane buffers full
				}
				lane.size = int32(pkt.Size)
				pkt.InjectedAt = d.now
				d.backlog[pkt.Dst] += pkt.Size
			}
			f, tail := lane.q.pop(d.handles, ni.laneCap, int(lane.size))
			ni.queued--
			budget--
			d.stats.InjLinkFlits++
			if tail {
				pkt := d.pkts.of(f.h)
				d.pkts.release(f.h)
				d.inflight.add(pkt, d.now+int64(d.cfg.Mesh.Hops(pkt.Src, pkt.Dst)))
				lane.size = 0
			}
		}
	}
}

// deliverArrivals moves due in-flight packets into their destination
// ejection queues in the line's (arriveAt, ID) order and stamps each
// packet's ArrivedAt.
func (d *DA2Mesh) deliverArrivals() {
	for _, a := range d.inflight.take(d.now) {
		a.pkt.ArrivedAt = d.now
		d.ejectQ[a.pkt.Dst] = append(d.ejectQ[a.pkt.Dst], a)
	}
}

// drainEjectors consumes one flit per cycle at every destination with a
// non-empty ejection queue. A delivered packet leaves the queue by copying
// the rest down, so its backing array is reused forever.
func (d *DA2Mesh) drainEjectors() {
	for node, q := range d.ejectQ {
		if len(q) == 0 {
			continue
		}
		a := &q[0]
		a.drained++
		d.stats.EjectFlits++
		d.backlog[node]--
		if a.drained == a.pkt.Size {
			d.deliver(node, a.pkt, d.now)
			d.ejectQ[node] = q[:copy(q, q[1:])]
		}
	}
}

// CheckInvariants validates the overlay's lanes and packet table: every
// lane ring holds whole packets (checkRing), every live slot is named by a
// lane, and the live slots are the accepted packets whose tail has not left
// its lane — those in flight less those flying toward or queued at an
// ejector. O(lanes), for tests.
func (d *DA2Mesh) CheckInvariants() error {
	named := make([]bool, len(d.pkts.pkts))
	for id := range d.nis {
		ni := &d.nis[id]
		for l := range ni.lanes {
			q := &ni.lanes[l].q
			if err := d.pkts.checkRing(q, d.handles, ni.laneCap, true); err != nil {
				return fmt.Errorf("node %d lane %d: %w", id, l, err)
			}
			// A lane streams its front packet from the head's departure to
			// the tail's.
			if size := ni.lanes[l].size; (size != 0) != (q.seq != 0) ||
				size != 0 && int(size) != d.pkts.of(q.front(d.handles).h).Size {
				return fmt.Errorf("node %d lane %d: streaming size %d at front flit %d", id, l, size, q.seq)
			}
			for i := 0; i < int(q.n); i++ {
				named[q.handle(d.handles, ni.laneCap, i)] = true
			}
		}
	}
	for h, p := range d.pkts.pkts {
		if p != nil && !named[h] {
			return fmt.Errorf("packet %d holds slot %d with no flit on a lane", p.ID, h)
		}
	}
	offLane := len(d.inflight.held)
	for _, q := range d.ejectQ {
		offLane += len(q)
	}
	if live := d.pkts.live(); live != d.inFlight-offLane {
		return fmt.Errorf("%d live packet slots != %d in flight - %d off their lanes", live, d.inFlight, offLane)
	}
	return nil
}

// OldestPacketAge returns the age of the oldest packet the overlay holds:
// on a lane, flying toward its destination, or in an ejection queue.
func (d *DA2Mesh) OldestPacketAge() int64 {
	oldest := d.inflight.oldest(d.pkts.oldest(d.now))
	for _, q := range d.ejectQ {
		oldest = oldestArrival(q, oldest)
	}
	return d.now - oldest
}

// StateSnapshot reports the cycle, the in-flight count and the oldest
// packets.
func (d *DA2Mesh) StateSnapshot() StateDump {
	held := d.inflight.appendPackets(d.pkts.appendLive(nil))
	for _, q := range d.ejectQ {
		for _, a := range q {
			held = append(held, a.pkt)
		}
	}
	return d.snapshot(held)
}

// NIOccupancyAvgFlits returns the mean time-averaged lane-queue occupancy
// over injecting NIs.
func (d *DA2Mesh) NIOccupancyAvgFlits() float64 {
	var sum float64
	var cnt int
	for i := range d.nis {
		ni := &d.nis[i]
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
