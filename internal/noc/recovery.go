package noc

import (
	"encoding/binary"
	"hash/crc32"
)

// Fault recovery: the end-to-end protocol layer that turns link-level flit
// corruption into a retransmission, instead of a silently wrong delivery.
// It is enabled per network by Config.RetransBufPkts > 0 and has three
// cooperating pieces:
//
//   - Detection. Every packet accepted by a sending NI carries a CRC32
//     checksum over its header identity (Packet.Check). A flit traversal
//     of a link inside a corruption window (a flit-corrupt fault) marks its
//     packet bad in the packet table — the model of a payload bit-flip that
//     a CRC recomputation at the receiver would catch. The ejector reads
//     the mark as the tail flit drains and drops the whole packet instead
//     of delivering it: the eject handler never sees a corrupted packet.
//
//   - NACK/ACK sideband. On a drop the receiving NI sends a NACK back to
//     the source; on a clean delivery it sends an ACK. Control signals are
//     modelled like credits: an out-of-band sideband that consumes no mesh
//     bandwidth but does pay propagation latency (one cycle per hop of the
//     minimal path plus one). They are written during the ejection phase
//     and consumed by the target NI at least one cycle later.
//
//   - Retransmission. A sending NI retains every accepted packet in a
//     bounded retransmission buffer until the ACK arrives; a full buffer
//     makes CanAccept false, which surfaces to node logic as the same
//     backpressure as a full NI queue (the paper's "data stall in MC").
//     A NACK marks the entry pending, and the NI re-injects the packet
//     through its normal supply path — the baseline FIFO, the ARI split
//     queues, or the MultiPort binding — so recovery traffic exercises the
//     scheme seam like first-try traffic does, preserving the original
//     CreatedAt (latency includes every retransmission round trip) and the
//     original packet ID (in-flight accounting sees one logical packet).
//
// A dropped packet stays logically in flight (inFlight is not decremented
// until a clean copy of it is delivered), so drain loops and the
// event-driven Step early-out remain correct without new bookkeeping;
// pending control signals are tracked by ctlPending so ACK/NACK delivery
// alone keeps the network stepping after the last flit drains.

// RecoveryStats are the cumulative fault-recovery protocol counters of one
// network. They live outside NetStats so encoded Results stay byte-identical
// to pre-recovery golden files; like VAGrants they are never reset by
// ResetStats — consumers take deltas.
type RecoveryStats struct {
	// CorruptFlits counts flits marked bad by a link corruption window.
	CorruptFlits uint64
	// CorruptPackets counts packets dropped at a receiving NI because a
	// flit was bad (every one is NACKed; detection is exhaustive).
	CorruptPackets uint64
	// NacksSent and AcksSent count sideband control signals issued by
	// receiving NIs.
	NacksSent uint64
	AcksSent  uint64
	// RetransPackets / RetransFlits count NACK-triggered re-injections
	// through the normal supply path.
	RetransPackets uint64
	RetransFlits   uint64
	// RetransBufFullRejects counts Offer rejections caused specifically by
	// a full retransmission buffer (unacknowledged packets at the cap).
	RetransBufFullRejects uint64
	// DeadLinks counts mesh links permanently killed by killLink.
	DeadLinks int
}

// ctlSignal is one ACK or NACK in flight on the control sideband toward the
// source NI of packet pktID.
type ctlSignal struct {
	pktID uint64
	due   int64
	nack  bool
}

// retransEntry retains one unacknowledged packet at its sending NI. It
// copies the packet's identity instead of holding the *Packet: the eject
// handler may recycle the delivered shell into the pool while the ACK is
// still propagating, so a retransmission always rebuilds a fresh shell.
type retransEntry struct {
	id      uint64
	typ     PacketType
	dst     int
	size    int
	check   uint32
	created int64
	payload any
	// pending marks a NACKed entry waiting to re-enter the injection queue.
	pending bool
}

// PacketCheck returns the CRC32 (IEEE) checksum a sending NI stamps into
// Packet.Check: the model's stand-in for an end-to-end payload CRC, covering
// the header identity that reassembly depends on.
func PacketCheck(p *Packet) uint32 {
	var b [21]byte
	binary.LittleEndian.PutUint64(b[0:], p.ID)
	binary.LittleEndian.PutUint32(b[8:], uint32(p.Src))
	binary.LittleEndian.PutUint32(b[12:], uint32(p.Dst))
	binary.LittleEndian.PutUint32(b[16:], uint32(p.Size))
	b[20] = byte(p.Type)
	return crc32.ChecksumIEEE(b[:])
}

// recoveryOn reports whether the fault-recovery protocol layer is enabled.
func (n *Network) recoveryOn() bool { return n.cfg.RetransBufPkts > 0 }

// CtlPending returns the number of ACK/NACK sideband signals still in
// flight; drain loops include it via Idle.
func (n *Network) CtlPending() int { return n.ctlPending }

// sendCtl issues one sideband control signal from the receiving node toward
// the source NI of pktID. Called only from the ejection phase, so appends
// to an NI inbox happen in node order; the signal becomes visible to the
// target NI next cycle at the earliest (due is always > now).
func (n *Network) sendCtl(from, to int, pktID uint64, nack bool, now int64) {
	due := now + 1 + int64(n.cfg.Mesh.Hops(from, to))
	n.nis[to].inbox = append(n.nis[to].inbox, ctlSignal{pktID: pktID, due: due, nack: nack})
	n.markBusy(to)
	n.ctlPending++
	if nack {
		n.recovery.NacksSent++
	} else {
		n.recovery.AcksSent++
	}
}

// dropCorrupt handles a corrupted tail at node's ejector: count the drop and
// NACK the source. The packet stays logically in flight — inFlight is only
// decremented by the eventual clean delivery — so drain detection needs no
// special case for packets awaiting retransmission.
func (n *Network) dropCorrupt(node int, pkt *Packet, now int64) {
	n.recovery.CorruptPackets++
	n.sendCtl(node, pkt.Src, pkt.ID, true, now)
}

// protoActive reports whether the NI has recovery-protocol work: control
// signals to consume or NACKed packets to re-inject. It is the event-driven
// stepping predicate that keeps a quiescent-queue NI scheduled while the
// protocol still owes it work.
func (ni *NI) protoActive() bool {
	return ni.retransCap > 0 && (len(ni.inbox) > 0 || ni.retransPending > 0)
}

// stepProtocol consumes due control signals and re-injects at most one
// NACKed packet per cycle through the normal supply path. Runs inside
// ni.step, strictly before the supply stage.
func (ni *NI) stepProtocol(now int64) {
	if len(ni.inbox) > 0 {
		kept := ni.inbox[:0]
		for _, c := range ni.inbox {
			if c.due > now {
				kept = append(kept, c)
				continue
			}
			ni.net.ctlPending--
			if c.nack {
				ni.nackRetrans(c.pktID)
			} else {
				ni.ackRetrans(c.pktID)
			}
		}
		ni.inbox = kept
	}
	if ni.retransPending > 0 {
		ni.tryRetransmit(now)
	}
}

// ackRetrans releases the retransmission-buffer slot of pktID.
func (ni *NI) ackRetrans(pktID uint64) {
	for i := range ni.retrans {
		if ni.retrans[i].id == pktID {
			if ni.retrans[i].pending {
				ni.retransPending--
			}
			ni.retrans[i].payload = nil
			ni.retrans = append(ni.retrans[:i], ni.retrans[i+1:]...)
			return
		}
	}
	panic("noc: ACK for a packet not in the retransmission buffer")
}

// nackRetrans marks pktID's entry for retransmission.
func (ni *NI) nackRetrans(pktID uint64) {
	for i := range ni.retrans {
		if ni.retrans[i].id == pktID {
			if !ni.retrans[i].pending {
				ni.retrans[i].pending = true
				ni.retransPending++
			}
			return
		}
	}
	panic("noc: NACK for a packet not in the retransmission buffer")
}

// tryRetransmit re-injects the oldest NACKed packet when its queue has room.
// The rebuilt shell keeps the original ID, checksum and CreatedAt; counters
// that already saw the first transmission (inFlight, PacketsInjected) are
// not incremented again — a retransmission is the same logical packet.
func (ni *NI) tryRetransmit(now int64) {
	idx := -1
	for i := range ni.retrans {
		if ni.retrans[i].pending {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	e := &ni.retrans[idx]
	pkt := &Packet{
		ID:        e.id,
		Type:      e.typ,
		Src:       ni.node,
		Dst:       e.dst,
		Size:      e.size,
		Check:     e.check,
		CreatedAt: e.created,
		Payload:   e.payload,
	}
	if ni.net.cfg.PriorityLevels >= 2 {
		pkt.Priority = ni.net.cfg.PriorityLevels - 1
	}
	q := &ni.queue
	if ni.mode == NISplit {
		v := ni.pickSplitQueue(pkt)
		if v < 0 {
			return // no split queue has room: retry next cycle
		}
		q = &ni.splitQueues[v]
	} else if q.free(ni.queueCap) < e.size {
		return // queue full: retry next cycle
	}
	q.pushPacket(ni.net.handles, ni.queueCap, ni.net.pkts.add(pkt), e.size)
	ni.addQueued(e.size)
	ni.everHeld = true
	ni.occupancy.Set(float64(ni.queuedFlits()), now)
	e.pending = false
	ni.retransPending--
	ni.net.recovery.RetransPackets++
	ni.net.recovery.RetransFlits += uint64(e.size)
}
