// Package noc implements a cycle-accurate network-on-chip simulator in the
// style of BookSim 2.0: virtual-channel wormhole routers with credit-based
// flow control, separable input-first allocators, XY and minimal-adaptive
// routing on a 2D mesh, and the network-interface (NI) architectures studied
// in the ARI paper (enhanced baseline, split-queue ARI, MultiPort) plus the
// DA2mesh overlay.
//
// The package is self-contained: traffic enters as Packets through Fabric.
// Inject and leaves through an ejection callback, so it can be driven either
// by the full GPGPU model (internal/core) or by synthetic traffic
// (examples/noctraffic, unit tests).
package noc

import "fmt"

// PacketType classifies the four coexisting GPGPU NoC packet types
// (paper Figure 5).
type PacketType uint8

const (
	// ReadRequest is a short control packet from a compute node to an MC.
	ReadRequest PacketType = iota
	// WriteRequest is a long packet carrying store data to an MC.
	WriteRequest
	// ReadReply is a long packet carrying load data back to a compute node.
	ReadReply
	// WriteReply is a short acknowledgement back to a compute node.
	WriteReply
	numPacketTypes
)

// NumPacketTypes is the number of distinct packet types.
const NumPacketTypes = int(numPacketTypes)

// String returns the paper's name for the packet type.
func (t PacketType) String() string {
	switch t {
	case ReadRequest:
		return "read_request"
	case WriteRequest:
		return "write_request"
	case ReadReply:
		return "read_reply"
	case WriteReply:
		return "write_reply"
	default:
		return fmt.Sprintf("PacketType(%d)", uint8(t))
	}
}

// IsLong reports whether the packet type carries a data payload and is
// therefore a multi-flit packet.
func (t PacketType) IsLong() bool { return t == ReadReply || t == WriteRequest }

// Packet is one network transaction: the header identity, timestamps and
// payload a fabric carries from Inject to the ejection callback. While it is
// in flight the fabric's packet table holds it; its flits carry only the
// table handle (see flit).
type Packet struct {
	ID   uint64
	Type PacketType
	Src  int // source node id
	Dst  int // destination node id
	Size int // length in flits at this network's link width

	// Priority is the ARI multi-level priority field carried in the header.
	// It is set to Config.PriorityLevels-1 at generation and decremented by
	// each route computation (floored at 0).
	Priority int

	// Timestamps, in NoC cycles. CreatedAt is when the node handed the
	// packet to the NI (so NI queueing counts toward packet latency, as in
	// paper §7.4). InjectedAt is when the head flit entered the injection
	// port. ArrivedAt is when the head flit reached the destination's
	// ejector: on the mesh its traversal onto the ejection port, on the
	// DA2mesh overlay its arrival in the ejection queue, and on the ideal
	// fabric the injection cycle. EjectedAt is when the tail flit was
	// consumed at the destination.
	CreatedAt  int64
	InjectedAt int64
	ArrivedAt  int64
	EjectedAt  int64

	// Payload carries the higher-level transaction (e.g. *mem.Transaction).
	Payload any
}

// flit is one link-width slice of a packet while it moves between buffers:
// the handle naming its packet in the owning fabric's packet table
// (pktTable) and its 0-based index within the packet. No buffer stores a
// flit; a buffer holds packets (pktRing), and a flit is a value only on its
// way from one buffer to the next.
type flit struct {
	h   uint32 // packet-table handle
	seq uint16 // 0-based flit index within the packet
}

func (f flit) isHead() bool { return f.seq == 0 }

// maxPacketFlits is the longest packet a flit's 16-bit seq can index.
const maxPacketFlits = 1<<16 - 1

// PacketSize returns the number of flits a packet of type t occupies on a
// network with the given link width, for a data payload of dataBytes.
// Short packets (read requests, write replies) are a single flit; long
// packets carry one header flit plus ceil(dataBytes / flitBytes) data flits
// (paper §3: a 1024-bit data on 128-bit links is an 8-flit payload, 9 flits
// total, matching the 36-flit NI queue holding 4 long packets).
func PacketSize(t PacketType, linkBits, dataBytes int) int {
	if !t.IsLong() {
		return 1
	}
	flitBytes := linkBits / 8
	if flitBytes <= 0 {
		panic("noc: link width must be at least 8 bits")
	}
	n := (dataBytes + flitBytes - 1) / flitBytes
	return 1 + n
}

// maxRingFlits is the largest capacity a pktRing's 16-bit counts can index.
const maxRingFlits = 1<<16 - 1

// pktRing is a fixed-capacity FIFO buffer of flits held as packets: one
// packet-table handle per packet, at [off, off+capacity) of its fabric's
// handle slab, plus the flits resident and seq, the front packet's next
// flit. Wormhole switching lands a packet's flits in a buffer contiguously
// and in order, so a head flit appends its packet's handle, a body flit
// only counts, and the pop that sends a packet's last flit advances the
// front; the owner passes the front packet's size, which it reads once per
// packet. Only the back packet can be partly arrived, so every packet
// before it has all its flits from seq on resident, and a front packet with
// no flit resident is alone: a ring never holds more handles than its
// capacity in flits.
//
// The record holds no pointer and no capacity: every ring of one kind
// (router and ejector VCs, an NI's queues, an overlay lane) has the same
// capacity, which its owner passes in with the slab.
type pktRing struct {
	off        int32
	head, n    uint16 // the front handle's slot and the handles held
	flits, seq uint16
}

func (q *pktRing) len() int              { return int(q.flits) }
func (q *pktRing) empty() bool           { return q.flits == 0 }
func (q *pktRing) free(capacity int) int { return capacity - int(q.flits) }

// front returns the next flit to leave: flit seq of the front packet. The
// ring must hold a packet.
func (q *pktRing) front(slab []uint32) flit {
	return flit{h: slab[int(q.off)+int(q.head)], seq: q.seq}
}

// handle returns the handle of the i-th packet from the front (i < n).
func (q *pktRing) handle(slab []uint32, capacity, i int) uint32 {
	return slab[q.slot(capacity, i)]
}

// slot maps the i-th packet from the front (i below capacity) to its slab
// index.
func (q *pktRing) slot(capacity, i int) int {
	if i += int(q.head); i >= capacity {
		i -= capacity
	}
	return int(q.off) + i
}

// push lands flit f at the back: a head flit starts a packet, a body flit
// belongs to the back packet.
func (q *pktRing) push(slab []uint32, capacity int, f flit) {
	if int(q.flits) == capacity {
		panic("noc: packet ring overflow")
	}
	if f.seq == 0 {
		q.append(slab, capacity, f.h)
	}
	q.flits++
}

// pushPacket queues every flit of the size-flit packet with handle h.
func (q *pktRing) pushPacket(slab []uint32, capacity int, h uint32, size int) {
	if q.free(capacity) < size {
		panic("noc: packet ring overflow")
	}
	q.append(slab, capacity, h)
	q.flits += uint16(size)
}

func (q *pktRing) append(slab []uint32, capacity int, h uint32) {
	slab[q.slot(capacity, int(q.n))] = h
	q.n++
}

// pop removes the front flit, of a front packet size flits long, and
// reports whether it was the packet's tail.
func (q *pktRing) pop(slab []uint32, capacity, size int) (f flit, tail bool) {
	if q.flits == 0 {
		panic("noc: packet ring underflow")
	}
	f = q.front(slab)
	q.flits--
	if q.seq++; int(q.seq) < size {
		return f, false
	}
	q.seq = 0
	if q.head++; int(q.head) == capacity {
		q.head = 0
	}
	q.n--
	return f, true
}
