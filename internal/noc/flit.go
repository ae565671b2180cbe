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

// IsReply reports whether the packet type travels on the reply network.
func (t PacketType) IsReply() bool { return t == ReadReply || t == WriteReply }

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
	// consumed at the destination. A retransmission is a fresh shell that
	// keeps CreatedAt and stamps the other three anew.
	CreatedAt  int64
	InjectedAt int64
	ArrivedAt  int64
	EjectedAt  int64

	// Payload carries the higher-level transaction (e.g. *mem.Transaction).
	Payload any

	// Check is the CRC32 the sending NI stamps over the header identity when
	// fault recovery is enabled (Config.RetransBufPkts > 0); see PacketCheck.
	// Zero when recovery is off.
	Check uint32
}

// flit is one link-width slice of a packet: an 8-byte, pointer-free value
// naming its packet by a handle into the owning fabric's packet table
// (pktTable), so the flit slab is never scanned by the garbage collector.
// Flits are stored in ring buffers; they are never shared across buffers.
type flit struct {
	h   uint32 // packet-table handle
	seq uint16 // 0-based flit index within the packet
	// bits holds flitTail, and flitBad for a flit whose payload was
	// corrupted on a link traversal (a flit-corrupt fault window). The bad
	// bit rides the flit through buffers and never influences routing or
	// arbitration; only the receiving NI's CRC-check-equivalent reads it
	// (recovery.go).
	bits uint8
}

const (
	flitTail uint8 = 1 << iota
	flitBad
)

func (f flit) isHead() bool { return f.seq == 0 }
func (f flit) isTail() bool { return f.bits&flitTail != 0 }
func (f flit) isBad() bool  { return f.bits&flitBad != 0 }

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

// maxRingFlits is the largest capacity a flitRing's 16-bit head and size
// can index.
const maxRingFlits = 1<<16 - 1

// flitRing is a fixed-capacity FIFO of flits held at [off, off+capacity) of
// its fabric's flit slab. The record holds no pointer and no capacity: every
// ring of one kind (router and ejector VCs, an NI's queues, an overlay
// lane) has the same capacity, which its owner passes in with the slab.
type flitRing struct {
	off        int32
	head, size uint16
}

func (q *flitRing) len() int                             { return int(q.size) }
func (q *flitRing) empty() bool                          { return q.size == 0 }
func (q *flitRing) free(capacity int) int                { return capacity - int(q.size) }
func (q *flitRing) front(slab []flit) flit               { return slab[int(q.off)+int(q.head)] }
func (q *flitRing) at(slab []flit, capacity, i int) flit { return slab[q.slot(capacity, i)] }

// slot maps a logical position (0 = front, below capacity) to its slab
// index.
func (q *flitRing) slot(capacity, i int) int {
	if i += int(q.head); i >= capacity {
		i -= capacity
	}
	return int(q.off) + i
}

func (q *flitRing) push(slab []flit, capacity int, f flit) {
	if int(q.size) == capacity {
		panic("noc: flit ring overflow")
	}
	slab[q.slot(capacity, int(q.size))] = f
	q.size++
}

// pushPacket queues every flit of the size-flit packet with handle h.
func (q *flitRing) pushPacket(slab []flit, capacity int, h uint32, size int) {
	for s := 0; s < size; s++ {
		f := flit{h: h, seq: uint16(s)}
		if s == size-1 {
			f.bits = flitTail
		}
		q.push(slab, capacity, f)
	}
}

func (q *flitRing) pop(slab []flit, capacity int) flit {
	if q.size == 0 {
		panic("noc: flit ring underflow")
	}
	f := slab[int(q.off)+int(q.head)]
	if q.head++; int(q.head) == capacity {
		q.head = 0
	}
	q.size--
	return f
}
