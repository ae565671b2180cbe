package noc

import "fmt"

// TraceStage labels one event in a sampled packet's lifecycle, in the order
// the pipeline produces them: the node hands the packet to the NI queue,
// the head flit wins the injection link, then per hop a downstream VC is
// allocated and the head flit traverses the switch, and finally the tail
// flit is consumed at the destination. Together they support the paper's
// Fig. 2/3 latency attribution: NI queueing (enqueue -> inject), network
// transit (inject -> last switch) and ejection (last switch -> eject).
type TraceStage uint8

const (
	// TraceNIEnqueue: the node handed the whole packet to the NI queue.
	TraceNIEnqueue TraceStage = iota
	// TraceInject: the head flit left the NI onto the injection link.
	TraceInject
	// TraceVAGrant: a router allocated a downstream VC to the packet (per hop).
	TraceVAGrant
	// TraceSwitch: the head flit traversed a router's switch (per hop).
	TraceSwitch
	// TraceEject: the tail flit was consumed at the destination.
	TraceEject
)

// String names the stage for diagnostics and trace exports.
func (s TraceStage) String() string {
	switch s {
	case TraceNIEnqueue:
		return "ni_enqueue"
	case TraceInject:
		return "inject"
	case TraceVAGrant:
		return "va_grant"
	case TraceSwitch:
		return "switch"
	case TraceEject:
		return "eject"
	default:
		return fmt.Sprintf("TraceStage(%d)", uint8(s))
	}
}

// Tracer receives lifecycle events for sampled packets. Implementations are
// called synchronously from inside a fabric's Inject and Step, so they must
// not block and must not touch the fabric; they only record. Events for one
// packet arrive in pipeline order with non-decreasing cycles; events for
// different packets interleave.
//
// Every fabric opens a lifecycle with TraceNIEnqueue and closes it with
// TraceEject; what lies between is the fabric's own:
//
//   - Network: TraceInject when the head flit leaves the NI, then per hop
//     TraceVAGrant and TraceSwitch.
//   - DA2Mesh: TraceInject when a lane starts streaming the head flit, and
//     one TraceSwitch when the packet reaches its destination's ejection
//     queue (the overlay's last "hop"); TraceEject when that queue has
//     drained its tail.
//   - IdealFabric: TraceInject at Inject (there is no queue), no hop, and
//     TraceEject at delivery.
//
// A stage a fabric does not have therefore reads as zero in a latency
// decomposition.
type Tracer interface {
	PacketEvent(pktID uint64, t PacketType, src, dst, node int, stage TraceStage, cycle int64)
}
