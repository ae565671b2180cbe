package obs

import (
	"repro/internal/noc"
	"repro/internal/stats"
)

// PacketTrace is the recorded lifecycle of one sampled packet.
type PacketTrace struct {
	ID       uint64
	Type     noc.PacketType
	Src, Dst int
	// Enqueued is when the node handed the packet to the NI; Injected when
	// the head flit left the NI; Ejected when the tail flit was consumed.
	Enqueued, Injected, Ejected int64
	// LastSwitch is the cycle of the final switch traversal (the hop that
	// staged the head flit toward the destination's ejector), or Injected
	// when no switch traversal was recorded: where network transit ends and
	// ejection begins.
	LastSwitch int64
}

// Collector implements noc.Tracer: it assembles the event stream of one
// fabric into per-packet lifecycles. It is single-goroutine like the
// network that feeds it; read Done only after the run finishes.
type Collector struct {
	// Label names the fabric ("req", "rep") in exports.
	Label string
	open  map[uint64]*PacketTrace
	done  []*PacketTrace
}

// NewCollector returns a collector labelled for exports.
func NewCollector(label string) *Collector {
	return &Collector{Label: label, open: make(map[uint64]*PacketTrace)}
}

// PacketEvent records one lifecycle event (noc.Tracer).
func (c *Collector) PacketEvent(pktID uint64, t noc.PacketType, src, dst, node int, stage noc.TraceStage, cycle int64) {
	p := c.open[pktID]
	if p == nil {
		if stage != noc.TraceNIEnqueue {
			return // packet sampled mid-flight (tracer attached late): skip
		}
		p = &PacketTrace{ID: pktID, Type: t, Src: src, Dst: dst, Enqueued: cycle}
		c.open[pktID] = p
		return
	}
	switch stage {
	case noc.TraceInject:
		p.Injected, p.LastSwitch = cycle, cycle
	case noc.TraceSwitch:
		p.LastSwitch = cycle
	case noc.TraceEject:
		p.Ejected = cycle
		c.done = append(c.done, p)
		delete(c.open, pktID)
	}
}

// Done returns the completed packet lifecycles in ejection order. Packets
// still in flight at the end of the run are excluded.
func (c *Collector) Done() []*PacketTrace { return c.done }

// Open returns the number of sampled packets still in flight.
func (c *Collector) Open() int { return len(c.open) }

// Decomposition is the paper-style latency attribution over a set of traced
// packets: Queue is NI queueing (enqueue -> injection grant, the reply-
// injection bottleneck of Fig. 2/3), Net is network transit (injection ->
// last switch traversal), Eject is ejection serialisation (last switch ->
// tail consumed), Total is end to end. All in cycles.
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

// Decompose attributes the latency of every completed packet of the given
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
		d.Net.Add(float64(p.LastSwitch - p.Injected))
		d.Eject.Add(float64(p.Ejected - p.LastSwitch))
		d.Total.Add(float64(p.Ejected - p.Enqueued))
	}
	return d
}
