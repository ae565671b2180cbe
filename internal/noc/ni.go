package noc

import "repro/internal/stats"

// NI is the injection side of a node's network interface. It models the
// paper's enhanced baseline (§4.1) and the two accelerated architectures:
//
//   - NIBaseline: the node hands a whole packet to the single injection
//     queue in one cycle (wide W link), and the queue feeds the router
//     injection port over a narrow N link at one flit per cycle, choosing
//     the injection VC per packet.
//   - NISplit (ARI): the queue is split into one one-packet queue per
//     injection VC, each wired by its own narrow link to that VC, giving an
//     aggregate supply of up to VCs flits per cycle.
//   - NIMultiPort: one queue, one flit per cycle total, but the head packet
//     may bind to any VC of any of the router's multiple injection ports.
type NI struct {
	net    *Network
	node   int
	mode   NIMode
	router *router
	// injPorts is the number of injection input ports of the router (its
	// input ports NumDirections..NumDirections+injPorts-1).
	injPorts int

	// vcCredits[p*VCs+v] is the free space the NI sees in injection port p,
	// VC v of the router (decremented on staging, restored by the router's
	// switch traversal).
	vcCredits []int32

	// Baseline / MultiPort state: one FIFO and the (port, VC) binding of
	// the packet currently streaming over the narrow link.
	queue               flitQueue
	boundPort, boundVC  int
	bindNext            int // round-robin pointer over port*vc slots for head binding
	lastOfferCycle      int64
	offeredThisCycle    bool
	splitQueues         []flitQueue // NISplit: one per VC
	occupancy           stats.TimeWeighted
	everHeld            bool
	acceptedPackets     uint64
	rejectedOfferEvents uint64
	injectedFlits       uint64 // flits sent over the injection link(s)
	// mcLinkBusyUntil models the narrow MC->NI link of the unenhanced
	// baseline (NINarrowLink): accepting a packet occupies it Size cycles.
	mcLinkBusyUntil int64
	// stalledUntil is the fault-injection backpressure horizon: while now is
	// before it the NI supplies no flits, so its queues back up and Offer
	// rejections propagate the burst to the node (see internal/fault).
	stalledUntil int64

	// Fault-recovery protocol state (recovery.go). retransCap > 0 enables
	// the layer: retrans retains unacknowledged packets (bounded by
	// retransCap — a full buffer backpressures Offer), retransPending counts
	// NACKed entries awaiting re-injection, and inbox holds ACK/NACK
	// sideband signals in flight toward this NI.
	retransCap     int
	retrans        []retransEntry
	retransPending int
	inbox          []ctlSignal
}

// splitQueueFlits is the capacity of each split queue: an equal share of the
// NI buffer, but at least one long packet (§4.1) — the total NI buffer is
// kept >= the baseline's in that case.
func splitQueueFlits(cfg *Config) int {
	per := cfg.NIQueueFlits / cfg.VCs
	if long := cfg.LongPacketFlits(); per < long {
		per = long
	}
	return per
}

// niQueueFlits is the total injection-queue storage of a node's NI.
func niQueueFlits(cfg *Config, nc NodeConfig) int {
	if nc.NI == NISplit {
		return cfg.VCs * splitQueueFlits(cfg)
	}
	return cfg.NIQueueFlits
}

// init builds the NI of router's node out of the network's slabs.
func (ni *NI) init(net *Network, router *router, sl *slabs) {
	cfg := &net.cfg
	*ni = NI{
		net:       net,
		node:      router.id,
		mode:      cfg.node(router.id).NI,
		router:    router,
		injPorts:  len(router.in) - NumDirections,
		boundPort: -1,
		boundVC:   -1,
	}
	ni.vcCredits = carve(&sl.int32s, ni.injPorts*cfg.VCs)
	for i := range ni.vcCredits {
		ni.vcCredits[i] = int32(cfg.VCDepth)
	}
	switch ni.mode {
	case NISplit:
		ni.splitQueues = carve(&sl.queues, cfg.VCs)
		for v := range ni.splitQueues {
			ni.splitQueues[v].buf = carve(&sl.flits, splitQueueFlits(cfg))
		}
	default:
		ni.queue.buf = carve(&sl.flits, cfg.NIQueueFlits)
	}
	if cfg.RetransBufPkts > 0 {
		ni.retransCap = cfg.RetransBufPkts
		ni.retrans = make([]retransEntry, 0, cfg.RetransBufPkts)
	}
}

// creditReturn restores one credit for injection port p, VC v; called by
// the router when it pops a flit from that VC.
func (ni *NI) creditReturn(p, v int) { ni.vcCredits[p*ni.router.nvc+v]++ }

// queuedFlits reads the NI's activity predicate (the network's niQueued
// slot): flits buffered in its injection queue(s).
func (ni *NI) queuedFlits() int { return int(ni.net.niQueued[ni.node]) }

// addQueued adjusts the NI's activity predicate.
func (ni *NI) addQueued(d int) { ni.net.niQueued[ni.node] += int32(d) }

// CanAccept reports whether Offer(pkt) would succeed this cycle: the NI
// core logic formats at most one packet per cycle (it processes one data
// per cycle, §4.1) and the target queue must have space for the whole
// packet, since the wide link writes it in one cycle.
func (ni *NI) CanAccept(pkt *Packet, now int64) bool {
	if ni.offeredThisCycle && ni.lastOfferCycle == now {
		return false
	}
	if ni.retransCap > 0 && len(ni.retrans) >= ni.retransCap {
		return false // retransmission buffer full: unacked packets at the cap
	}
	if ni.mode == NINarrowLink && now < ni.mcLinkBusyUntil {
		return false // previous packet still serialising over the MC->NI link
	}
	if ni.mode == NISplit {
		return ni.pickSplitQueue(pkt) >= 0
	}
	return ni.queue.free() >= pkt.Size
}

// Offer hands a whole packet to the NI. It returns false (and the node must
// stall and retry) when the queue cannot take it; that rejection is the
// paper's "data stall in MC" condition (Fig 12).
func (ni *NI) Offer(pkt *Packet, now int64) bool {
	if !ni.CanAccept(pkt, now) {
		ni.rejectedOfferEvents++
		ni.net.stats.NIFullRejects++
		if ni.retransCap > 0 && len(ni.retrans) >= ni.retransCap {
			ni.net.recovery.RetransBufFullRejects++
		}
		return false
	}
	ni.offeredThisCycle = true
	ni.lastOfferCycle = now
	if ni.mode == NINarrowLink {
		ni.mcLinkBusyUntil = now + int64(pkt.Size)
	}
	pkt.CreatedAt = now
	if ni.net.cfg.PriorityLevels >= 2 {
		pkt.Priority = ni.net.cfg.PriorityLevels - 1
	} else {
		pkt.Priority = 0
	}
	q := &ni.queue
	if ni.mode == NISplit {
		q = &ni.splitQueues[ni.pickSplitQueue(pkt)]
	}
	if ni.retransCap > 0 {
		// Stamp the end-to-end checksum and retain the packet's identity
		// until the ACK arrives (recovery.go). Identity fields are copied:
		// the delivered shell may be recycled while the ACK is in flight.
		pkt.Check = PacketCheck(pkt)
		ni.retrans = append(ni.retrans, retransEntry{
			id:      pkt.ID,
			typ:     pkt.Type,
			dst:     pkt.Dst,
			size:    pkt.Size,
			check:   pkt.Check,
			created: pkt.CreatedAt,
			payload: pkt.Payload,
		})
	}
	q.pushPacket(ni.net.pkts.add(pkt), pkt.Size)
	ni.addQueued(pkt.Size)
	ni.net.markBusy(ni.node)
	ni.everHeld = true
	ni.occupancy.Set(float64(ni.queuedFlits()), now)
	ni.acceptedPackets++
	ni.net.accept(ni.node, pkt)
	return true
}

// pickSplitQueue returns the split queue index for pkt: the least-occupied
// queue with room for the whole packet (the lowest index among equals), or
// -1.
func (ni *NI) pickSplitQueue(pkt *Packet) int {
	best, bestLen := -1, 0
	for v := range ni.splitQueues {
		q := &ni.splitQueues[v]
		if q.free() < pkt.Size {
			continue
		}
		if best == -1 || q.len() < bestLen {
			best, bestLen = v, q.len()
		}
	}
	return best
}

// step supplies flits over the narrow link(s) into the router's injection
// VCs. Staged flits land in the VC buffers at the start of the next cycle
// (the injection link is a real 1-cycle link).
func (ni *NI) step(now int64) {
	if now >= ni.stalledUntil {
		if ni.retransCap > 0 {
			// Protocol work first: consume due ACK/NACKs and re-inject at
			// most one NACKed packet, so it can start supplying this cycle.
			// A stalled NI does neither — the fault freezes the whole NI.
			ni.stepProtocol(now)
		}
		switch ni.mode {
		case NISplit:
			ni.stepSplit(now)
		default:
			ni.stepFIFO(now)
		}
	}
	if ni.everHeld {
		ni.occupancy.Set(float64(ni.queuedFlits()), now)
	}
}

// stepFIFO implements the single-queue supply (baseline and MultiPort):
// one flit per cycle over one narrow link, with the head packet bound to
// an injection (port, VC) pair chosen by the NI.
func (ni *NI) stepFIFO(now int64) {
	if ni.queue.empty() {
		return
	}
	f := ni.queue.front()
	if f.isHead() && ni.boundVC == -1 {
		ni.bindHead(ni.net.pkts.of(f).Size)
		if ni.boundVC == -1 {
			return // no injection VC can take the packet yet
		}
	}
	p, v := ni.boundPort, ni.boundVC
	if p == -1 || ni.vcCredits[p*ni.router.nvc+v] <= 0 {
		return
	}
	ni.deliver(ni.queue.pop(), p, v, now)
	if f.isTail() {
		ni.boundPort, ni.boundVC = -1, -1
	}
}

// bindHead selects the injection (port, VC) for a new packet: the slot with
// the most free space, round-robin tie-broken, requiring room for the whole
// packet (size flits) so two packets never interleave within a VC stream
// from the NI.
func (ni *NI) bindHead(size int) {
	vcs := ni.router.nvc
	best, bestCred := -1, 0
	n := len(ni.vcCredits)
	start := ni.bindNext
	for k := 0; k < n; k++ {
		slot := (start + k) % n
		c := int(ni.vcCredits[slot])
		if c < size {
			continue
		}
		if c > bestCred {
			best, bestCred = slot, c
		}
	}
	if best < 0 {
		return
	}
	ni.bindNext = (best + 1) % n
	ni.boundPort, ni.boundVC = best/vcs, best%vcs
}

// stepSplit implements the ARI split supply: every split queue forwards one
// flit per cycle into its dedicated VC of injection port 0.
func (ni *NI) stepSplit(now int64) {
	for v := range ni.splitQueues {
		if ni.splitQueues[v].empty() || ni.vcCredits[v] <= 0 {
			continue
		}
		ni.deliver(ni.splitQueues[v].pop(), 0, v, now)
	}
}

func (ni *NI) deliver(f flit, p, v int, now int64) {
	ni.vcCredits[p*ni.router.nvc+v]--
	ni.addQueued(-1)
	if f.isHead() {
		pkt := ni.net.pkts.of(f)
		pkt.InjectedAt = now
		ni.net.trace(pkt, ni.node, TraceInject, now)
	}
	ni.router.stage(f, int32(NumDirections+p), int32(v))
	ni.injectedFlits++
	ni.net.stats.InjLinkFlits++
}

// OccupancyAvg returns the time-weighted average NI queue occupancy in
// flits (Fig 6's metric, converted to packets by the caller).
func (ni *NI) OccupancyAvg(now int64) float64 {
	ni.occupancy.Finish(now)
	return ni.occupancy.Average()
}

// QueueCapacityFlits returns the NI's total buffering in flits.
func (ni *NI) QueueCapacityFlits() int {
	if ni.mode == NISplit {
		total := 0
		for v := range ni.splitQueues {
			total += ni.splitQueues[v].cap()
		}
		return total
	}
	return ni.queue.cap()
}
