package obs

import (
	"repro/internal/noc"
	"repro/internal/stats"
)

// PacketTrace is the recorded lifecycle of one sampled packet: its
// identity and the four timestamps the fabric stamped on it (noc.Packet).
type PacketTrace struct {
	ID       uint64
	Type     noc.PacketType
	Src, Dst int
	// Enqueued is when the node handed the packet to the NI; Injected when
	// the head flit left the NI; Arrived when the head flit reached the
	// destination's ejector, where network transit ends and ejection
	// begins; Ejected when the tail flit was consumed.
	Enqueued, Injected, Arrived, Ejected int64
}

// Collector implements noc.Tracer: it records every sampled packet one
// fabric delivers, in delivery order. It is single-goroutine like the
// fabric that feeds it; read Done only after the run finishes.
type Collector struct {
	// Label names the fabric ("req", "rep") in exports.
	Label string
	done  []PacketTrace
}

// NewCollector returns a collector labelled for exports.
func NewCollector(label string) *Collector { return &Collector{Label: label} }

// Delivered records pkt's lifecycle (noc.Tracer).
func (c *Collector) Delivered(pkt *noc.Packet) {
	c.done = append(c.done, PacketTrace{
		ID: pkt.ID, Type: pkt.Type, Src: pkt.Src, Dst: pkt.Dst,
		Enqueued: pkt.CreatedAt, Injected: pkt.InjectedAt, Arrived: pkt.ArrivedAt, Ejected: pkt.EjectedAt,
	})
}

// Done returns the delivered packet lifecycles in delivery order.
func (c *Collector) Done() []PacketTrace { return c.done }

// Decomposition is the paper-style latency attribution over a set of traced
// packets: Queue is NI queueing (enqueue -> injection grant, the reply-
// injection bottleneck of Fig. 2/3), Net is network transit (injection ->
// arrival at the destination's ejector), Eject is ejection serialisation
// (arrival -> tail consumed), Total is end to end. All in cycles.
type Decomposition struct {
	Packets                  uint64
	Queue, Net, Eject, Total stats.Mean
}

// QueueFraction returns the share of total latency spent queueing at the NI.
func (d *Decomposition) QueueFraction() float64 {
	if d.Total.Sum() == 0 {
		return 0
	}
	return d.Queue.Sum() / d.Total.Sum()
}

// Decompose attributes the latency of every delivered packet of the given
// types (all types when none are given).
func (c *Collector) Decompose(types ...noc.PacketType) Decomposition {
	want := func(t noc.PacketType) bool {
		if len(types) == 0 {
			return true
		}
		for _, w := range types {
			if w == t {
				return true
			}
		}
		return false
	}
	var d Decomposition
	for _, p := range c.done {
		if !want(p.Type) {
			continue
		}
		d.Packets++
		d.Queue.Add(float64(p.Injected - p.Enqueued))
		d.Net.Add(float64(p.Arrived - p.Injected))
		d.Eject.Add(float64(p.Ejected - p.Arrived))
		d.Total.Add(float64(p.Ejected - p.Enqueued))
	}
	return d
}
