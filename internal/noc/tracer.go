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
// called synchronously from inside Network.Step, so they must not block and
// must not touch the network; they only record. Events for one packet arrive
// in pipeline order; events for different packets interleave.
type Tracer interface {
	PacketEvent(pktID uint64, t PacketType, src, dst, node int, stage TraceStage, cycle int64)
}

// SetTracer installs tr and samples every sampleEvery-th packet by ID
// (1 traces every packet; 0 or a nil tracer disables tracing). Tracing is
// observation only: it never alters routing, allocation or timing, so a
// traced run's Result is bit-identical to an untraced one. The hot-path
// cost with tracing disabled is a nil check on head-flit events.
func (n *Network) SetTracer(tr Tracer, sampleEvery uint64) {
	if tr == nil || sampleEvery == 0 {
		n.tracer = nil
		n.traceEvery = 0
		return
	}
	n.tracer = tr
	n.traceEvery = sampleEvery
}
