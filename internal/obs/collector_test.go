package obs

import (
	"testing"

	"repro/internal/noc"
)

// HopEvent is one per-hop event fed to a collector between injection and
// ejection.
type HopEvent struct {
	Node  int
	Stage noc.TraceStage
	Cycle int64
}

// feedLifecycle replays one packet's event stream into c.
func feedLifecycle(c *Collector, id uint64, typ noc.PacketType, enq, inj int64, hops []HopEvent, eject int64) {
	c.PacketEvent(id, typ, 0, 5, 0, noc.TraceNIEnqueue, enq)
	c.PacketEvent(id, typ, 0, 5, 0, noc.TraceInject, inj)
	for _, h := range hops {
		c.PacketEvent(id, typ, 0, 5, h.Node, h.Stage, h.Cycle)
	}
	c.PacketEvent(id, typ, 0, 5, 5, noc.TraceEject, eject)
}

func TestCollectorDecompose(t *testing.T) {
	c := NewCollector("rep")
	// Packet 1: enqueued 10, injected 30 (queue 20), last switch 50
	// (network 20), ejected 58 (eject 8), total 48.
	feedLifecycle(c, 1, noc.ReadReply, 10, 30, []HopEvent{
		{Node: 1, Stage: noc.TraceVAGrant, Cycle: 31},
		{Node: 1, Stage: noc.TraceSwitch, Cycle: 32},
		{Node: 5, Stage: noc.TraceSwitch, Cycle: 50},
	}, 58)
	// Packet 2: queue 0, no hops recorded -> network 0, eject 4, total 4.
	feedLifecycle(c, 2, noc.ReadReply, 100, 100, nil, 104)
	// A request packet that must be excluded by the type filter.
	feedLifecycle(c, 3, noc.ReadRequest, 0, 1, nil, 9)

	if len(c.Done()) != 3 || c.Open() != 0 {
		t.Fatalf("done=%d open=%d, want 3/0", len(c.Done()), c.Open())
	}
	d := c.Decompose(noc.ReadReply, noc.WriteReply)
	if d.Packets != 2 {
		t.Fatalf("Packets = %d, want 2", d.Packets)
	}
	if got := d.Queue.Sum(); got != 20 {
		t.Errorf("queue sum = %v, want 20", got)
	}
	if got := d.Net.Sum(); got != 20 {
		t.Errorf("net sum = %v, want 20", got)
	}
	if got := d.Eject.Sum(); got != 12 {
		t.Errorf("eject sum = %v, want 12", got)
	}
	if got := d.Total.Sum(); got != 52 {
		t.Errorf("total sum = %v, want 52", got)
	}
	if got, want := d.QueueFraction(), 20.0/52.0; got != want {
		t.Errorf("QueueFraction = %v, want %v", got, want)
	}
	// Per-packet identity: queue + net + eject == total.
	if d.Queue.Sum()+d.Net.Sum()+d.Eject.Sum() != d.Total.Sum() {
		t.Error("decomposition does not sum to total")
	}
	// Unfiltered decomposition sees all three packets.
	if all := c.Decompose(); all.Packets != 3 {
		t.Errorf("unfiltered Packets = %d, want 3", all.Packets)
	}
}

// TestCollectorSkipsMidFlightPackets pins the late-attach rule: events for a
// packet whose NI-enqueue was never seen are dropped, not recorded as a
// truncated lifecycle.
func TestCollectorSkipsMidFlightPackets(t *testing.T) {
	c := NewCollector("rep")
	c.PacketEvent(7, noc.ReadReply, 0, 5, 3, noc.TraceSwitch, 40)
	c.PacketEvent(7, noc.ReadReply, 0, 5, 5, noc.TraceEject, 44)
	if len(c.Done()) != 0 || c.Open() != 0 {
		t.Fatalf("mid-flight packet recorded: done=%d open=%d", len(c.Done()), c.Open())
	}
}

// TestCollectorOpenPacketsExcluded: a packet still in flight at the end of
// the run is visible via Open but not part of the decomposition.
func TestCollectorOpenPacketsExcluded(t *testing.T) {
	c := NewCollector("rep")
	c.PacketEvent(9, noc.ReadReply, 2, 6, 2, noc.TraceNIEnqueue, 10)
	c.PacketEvent(9, noc.ReadReply, 2, 6, 2, noc.TraceInject, 12)
	if c.Open() != 1 {
		t.Fatalf("Open = %d, want 1", c.Open())
	}
	if d := c.Decompose(); d.Packets != 0 {
		t.Fatalf("in-flight packet decomposed: %+v", d)
	}
}
