package obs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
)

// deliver hands c one delivered packet with the given stamps, as a fabric
// does at delivery.
func deliver(c *Collector, id uint64, typ noc.PacketType, enq, inj, arr, eject int64) {
	c.Delivered(&noc.Packet{ID: id, Type: typ, Dst: 5,
		CreatedAt: enq, InjectedAt: inj, ArrivedAt: arr, EjectedAt: eject})
}

func TestCollectorDecompose(t *testing.T) {
	c := NewCollector("rep")
	// Packet 1: enqueued 10, injected 30 (queue 20), arrived 50 (network
	// 20), ejected 58 (eject 8), total 48.
	deliver(c, 1, noc.ReadReply, 10, 30, 50, 58)
	// Packet 2: queue 0, network 0, eject 4, total 4.
	deliver(c, 2, noc.ReadReply, 100, 100, 100, 104)
	// A request packet that must be excluded by the type filter.
	deliver(c, 3, noc.ReadRequest, 0, 1, 1, 9)

	if len(c.Done()) != 3 {
		t.Fatalf("done=%d, want 3", len(c.Done()))
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

// inFlightPacket returns the Table I reply mesh holding one long packet
// from node 0 to the far corner, offered at cycle 0 and stepped 3 cycles.
func inFlightPacket(t *testing.T) (*noc.Network, *noc.Packet) {
	t.Helper()
	cfg, _ := core.ReplyNetwork(core.DefaultConfig())
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &noc.Packet{Type: noc.ReadReply, Dst: cfg.Mesh.Nodes() - 1, Size: cfg.LongPacketFlits()}
	if !net.Inject(0, pkt) {
		t.Fatal("Inject rejected on an idle mesh")
	}
	for range 3 {
		net.Step()
	}
	return net, pkt
}

// TestCollectorOpenPacketsExcluded: a packet still in flight at the end of
// the run is not recorded, so it is no part of the decomposition.
func TestCollectorOpenPacketsExcluded(t *testing.T) {
	c := NewCollector("rep")
	net, _ := inFlightPacket(t)
	net.SetTracer(c, 1)
	net.Step()
	if net.InFlight() != 1 || len(c.Done()) != 0 {
		t.Fatalf("in flight %d, recorded %d: want the packet in flight and unrecorded", net.InFlight(), len(c.Done()))
	}
	if d := c.Decompose(); d.Packets != 0 {
		t.Fatalf("in-flight packet decomposed: %+v", d)
	}
}

// TestCollectorAttachedMidRun: a collector attached while a packet is in
// flight records it at delivery with its true timestamps, enqueue included.
func TestCollectorAttachedMidRun(t *testing.T) {
	c := NewCollector("rep")
	net, pkt := inFlightPacket(t)
	net.SetTracer(c, 1)
	for net.InFlight() > 0 {
		net.Step()
	}
	want := PacketTrace{ID: pkt.ID, Type: pkt.Type, Src: 0, Dst: pkt.Dst,
		Enqueued: 0, Injected: pkt.InjectedAt, Arrived: pkt.ArrivedAt, Ejected: pkt.EjectedAt}
	if got := c.Done(); len(got) != 1 || got[0] != want || want.Injected > want.Arrived || want.Arrived >= want.Ejected {
		t.Fatalf("recorded %+v, want [%+v] with ordered stamps", got, want)
	}
}
