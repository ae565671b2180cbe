package noc

import (
	"cmp"
	"fmt"
	"slices"
)

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
	fabricBase

	nis      []overlayNI
	backlog  []int // per destination, flits queued or in flight toward it
	ejectQ   [][]overlayArrival
	inflight []overlayArrival // packets in flight, unsorted
	arrived  []overlayArrival // deliverArrivals' scratch

	// pkts holds every packet with a flit still queued on a lane; the lane
	// flits carry its handles.
	pkts pktTable
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
	q         flitQueue // ring carved from the overlay's flit slab
	streaming *Packet
}

// overlayNI is the injection interface of one node on the overlay.
type overlayNI struct {
	node  int
	mode  NIMode
	lanes []overlayLane
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
	d := &DA2Mesh{fabricBase: fabricBase{cfg: cfg, longPkt: cfg.LongPacketFlits()}}
	nodes := cfg.Mesh.Nodes()
	d.backlog = make([]int, nodes)
	d.ejectQ = make([][]overlayArrival, nodes)
	d.nis = make([]overlayNI, nodes)
	// Every lane has its own ring: NIQueueFlits in the FIFO modes (whose
	// traffic all queues on lane 0), a mesh split queue's share in split
	// mode.
	lanesOf := func(nc NodeConfig) (lanes, per int) {
		switch nc.NI {
		case NISplit:
			return cfg.VCs, splitQueueFlits(&cfg)
		case NIMultiPort:
			return nc.injPorts(), cfg.NIQueueFlits
		}
		return 1, cfg.NIQueueFlits
	}
	var lanes, flits int
	for id := 0; id < nodes; id++ {
		l, per := lanesOf(cfg.node(id))
		lanes, flits = lanes+l, flits+l*per
	}
	laneSlab, flitSlab := make([]overlayLane, lanes), make([]flit, flits)
	injLinks := 0
	for id := range d.nis {
		nc := cfg.node(id)
		l, per := lanesOf(nc)
		oni := &d.nis[id]
		*oni = overlayNI{node: id, mode: nc.NI, offeredAt: -1, lanes: carve(&laneSlab, l)}
		for i := range oni.lanes {
			oni.lanes[i].q.buf = carve(&flitSlab, per)
		}
		injLinks += len(oni.lanes)
	}
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
	ni.lanes[lane].q.pushPacket(d.pkts.add(pkt), pkt.Size)
	ni.queued += pkt.Size
	ni.everHeld = true
	ni.pick = (lane + 1) % len(ni.lanes)
	d.accept(node, pkt)
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
		q := &ni.lanes[l].q
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
			f := lane.q.front()
			if f.isHead() && lane.streaming == nil {
				pkt := d.pkts.of(f)
				if d.backlog[pkt.Dst] > window {
					continue // destination plane buffers full
				}
				lane.streaming = pkt
				pkt.InjectedAt = d.now
				d.trace(pkt, ni.node, TraceInject, d.now)
				d.backlog[pkt.Dst] += pkt.Size
			}
			if lane.streaming == nil {
				continue
			}
			lane.q.pop()
			ni.queued--
			budget--
			d.stats.InjLinkFlits++
			if f.isTail() {
				pkt := lane.streaming
				d.pkts.release(f.h)
				d.inflight = append(d.inflight, overlayArrival{
					pkt:      pkt,
					arriveAt: d.now + int64(d.cfg.Mesh.Hops(pkt.Src, pkt.Dst)),
				})
				lane.streaming = nil
			}
		}
	}
}

// deliverArrivals moves due in-flight packets into their destination
// ejection queues in (arriveAt, ID) order — a unique key, so the order is
// fully determined — and traces each arrival as the packet's one switch
// event. The arrivals are gathered into a scratch slice reused every cycle.
func (d *DA2Mesh) deliverArrivals() {
	due, arrived := d.inflight[:0], d.arrived[:0]
	for _, a := range d.inflight {
		if a.arriveAt <= d.now {
			arrived = append(arrived, a)
		} else {
			due = append(due, a)
		}
	}
	d.inflight, d.arrived = due, arrived
	slices.SortFunc(arrived, func(a, b overlayArrival) int {
		return cmp.Or(cmp.Compare(a.arriveAt, b.arriveAt), cmp.Compare(a.pkt.ID, b.pkt.ID))
	})
	for _, a := range arrived {
		d.ejectQ[a.pkt.Dst] = append(d.ejectQ[a.pkt.Dst], a)
		d.trace(a.pkt, a.pkt.Dst, TraceSwitch, d.now)
	}
}

// drainEjectors consumes EjectRate flits/cycle at every destination,
// skipping those with an empty ejection queue (the budget loop would exit
// immediately for them). Delivered packets leave the queue by copying the
// rest down, so its backing array is reused forever.
func (d *DA2Mesh) drainEjectors() {
	for node := range d.ejectQ {
		q := d.ejectQ[node]
		if len(q) == 0 {
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
				d.deliver(node, a.pkt, d.now)
				q = q[1:]
			}
		}
		d.ejectQ[node] = d.ejectQ[node][:copy(d.ejectQ[node], q)]
	}
}

// CheckInvariants validates the overlay's packet table: every lane flit
// names a live slot, every live slot is named by a lane flit, and the live
// slots are the accepted packets whose tail has not left its lane — those
// in flight less those flying toward or queued at an ejector. O(lanes), for
// tests.
func (d *DA2Mesh) CheckInvariants() error {
	named := make([]bool, len(d.pkts.pkts))
	for id := range d.nis {
		for l := range d.nis[id].lanes {
			q := &d.nis[id].lanes[l].q
			for i := 0; i < q.len(); i++ {
				f := q.at(i)
				if int(f.h) >= len(named) || d.pkts.pkts[f.h] == nil {
					return fmt.Errorf("node %d lane %d: flit %d names free packet slot %d", id, l, f.seq, f.h)
				}
				named[f.h] = true
			}
		}
	}
	for h, p := range d.pkts.pkts {
		if p != nil && !named[h] {
			return fmt.Errorf("packet %d holds slot %d with no flit on a lane", p.ID, h)
		}
	}
	offLane := len(d.inflight)
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
	oldest := oldestArrival(d.inflight, d.pkts.oldest(d.now))
	for _, q := range d.ejectQ {
		oldest = oldestArrival(q, oldest)
	}
	return d.now - oldest
}

// StateSnapshot reports the cycle, the in-flight count and the oldest
// packets.
func (d *DA2Mesh) StateSnapshot() StateDump {
	held := d.pkts.appendLive(nil)
	for _, a := range d.inflight {
		held = append(held, a.pkt)
	}
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
