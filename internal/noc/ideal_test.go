package noc

import "testing"

func newTestIdeal(t *testing.T) *IdealFabric {
	t.Helper()
	f, err := NewIdealFabric(testConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestIdealFabricDelivery(t *testing.T) {
	f := newTestIdeal(t)
	var gotNode int
	var got *Packet
	f.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		gotNode, got = node, pkt
	})
	pkt := mkPacket(f.cfg, ReadReply, 15)
	if !f.CanInject(0, pkt) || !f.Inject(0, pkt) {
		t.Fatal("ideal fabric refused an injection")
	}
	if f.InFlight() != 1 {
		t.Fatal("in-flight count wrong")
	}
	for i := 0; i < 100 && f.InFlight() > 0; i++ {
		f.Step()
	}
	if got != pkt || gotNode != 15 {
		t.Fatalf("delivery wrong: node %d", gotNode)
	}
	// Latency = hops + serialisation, nothing more.
	want := int64(Mesh{Width: 4, Height: 4}.Hops(0, 15) + pkt.Size)
	if lat := got.EjectedAt - got.CreatedAt; lat != want {
		t.Fatalf("ideal latency %d, want %d", lat, want)
	}
	if f.Stats().PacketsEjected[ReadReply] != 1 {
		t.Fatal("stats missed the ejection")
	}
}

func TestIdealFabricUnlimitedRate(t *testing.T) {
	// Many packets per cycle from one node all get accepted — that is the
	// "perfect consumption" the eq. (1) measurement needs.
	f := newTestIdeal(t)
	f.SetEjectHandler(func(int, *Packet, int64) {})
	for i := 0; i < 50; i++ {
		if !f.Inject(0, mkPacket(f.cfg, ReadReply, 1+i%15)) {
			t.Fatalf("injection %d refused", i)
		}
	}
	for i := 0; i < 200 && f.InFlight() > 0; i++ {
		f.Step()
	}
	if f.InFlight() != 0 {
		t.Fatal("ideal fabric failed to drain")
	}
}

func TestIdealFabricPeakWindow(t *testing.T) {
	f := newTestIdeal(t)
	f.SetEjectHandler(func(int, *Packet, int64) {})
	// 5 packets per 100-cycle window from node 0 for 5 windows.
	for c := 0; c < 500; c++ {
		if c%20 == 0 {
			f.Inject(0, mkPacket(f.cfg, ReadReply, 3))
		}
		f.Step()
	}
	if got := f.PeakWindow(0, 95); got != 5 {
		t.Fatalf("peak window = %v, want 5", got)
	}
	if got := f.PeakWindow(1, 95); got != 0 {
		t.Fatalf("idle node peak = %v, want 0", got)
	}
	f.ResetStats()
	if f.PeakWindow(0, 95) != 0 {
		t.Fatal("ResetStats kept windows")
	}
}

func TestNetworkCanInjectAndNow(t *testing.T) {
	n := newTestNet(t, nil)
	pkt := mkPacket(n.Config(), ReadReply, 5)
	if !n.CanInject(0, pkt) {
		t.Fatal("fresh network refuses injection")
	}
	if !n.Inject(0, pkt) {
		t.Fatal("inject failed")
	}
	if n.CanInject(0, mkPacket(n.Config(), ReadReply, 5)) {
		t.Fatal("CanInject ignores the per-cycle NI limit")
	}
	before := n.Now()
	n.Step()
	if n.Now() != before+1 {
		t.Fatal("Now did not advance")
	}
}

func TestNetworkResetStatsMidRun(t *testing.T) {
	n := newTestNet(t, nil)
	n.SetEjectHandler(func(int, *Packet, int64) {})
	for i := 0; i < 50; i++ {
		n.Inject(i%16, mkPacket(n.Config(), ReadReply, (i+3)%16))
		n.Step()
	}
	n.ResetStats()
	st := n.Stats()
	if st.Cycles != 0 || st.MeshLinkFlits != 0 {
		t.Fatal("counters survived reset")
	}
	if st.MeshLinks == 0 || st.InjLinks == 0 {
		t.Fatal("structural fields lost in reset")
	}
	// The network must still drain correctly after a reset.
	runUntilIdle(t, n, 100000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSinkGateBlocksEjection(t *testing.T) {
	n := newTestNet(t, nil)
	delivered := 0
	n.SetEjectHandler(func(int, *Packet, int64) { delivered++ })
	open := false
	n.SetSinkGate(func(node int) bool { return open })
	n.Inject(0, mkPacket(n.Config(), ReadRequest, 5))
	for i := 0; i < 200; i++ {
		n.Step()
	}
	if delivered != 0 {
		t.Fatal("closed sink gate did not block ejection")
	}
	open = true
	runUntilIdle(t, n, 1000)
	if delivered != 1 {
		t.Fatalf("delivered %d after opening gate, want 1", delivered)
	}
}

func TestNetStatsHelpers(t *testing.T) {
	n := newTestNet(t, nil)
	n.SetEjectHandler(func(int, *Packet, int64) {})
	n.Inject(0, mkPacket(n.Config(), ReadReply, 15))
	n.Inject(1, mkPacket(n.Config(), WriteReply, 14))
	runUntilIdle(t, n, 1000)
	st := n.Stats()
	if st.MeshLinkUtil() <= 0 || st.InjLinkUtil() <= 0 {
		t.Fatal("utilisations not positive after traffic")
	}
	if st.TotalPackets() != 2 {
		t.Fatalf("total packets = %d", st.TotalPackets())
	}
	if st.AvgLatency(ReadReply) <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestStringers(t *testing.T) {
	for pt := PacketType(0); int(pt) < NumPacketTypes; pt++ {
		if pt.String() == "" {
			t.Fatal("empty packet type name")
		}
	}
	if !WriteRequest.IsLong() || WriteReply.IsLong() {
		t.Fatal("IsLong wrong")
	}
	for _, m := range []NIMode{NIBaseline, NISplit, NIMultiPort} {
		if m.String() == "" {
			t.Fatal("empty NI mode name")
		}
	}
	if RouteXY.String() != "XY" || RouteMinAdaptive.String() != "Ada" {
		t.Fatal("routing names wrong")
	}
}

func TestOverlayCanInject(t *testing.T) {
	d := newTestOverlay(t, nil)
	pkt := mkPacket(d.cfg, ReadReply, 3)
	if !d.CanInject(0, pkt) {
		t.Fatal("fresh overlay refuses injection")
	}
	d.Inject(0, pkt)
	if d.CanInject(0, mkPacket(d.cfg, ReadReply, 3)) {
		t.Fatal("overlay CanInject ignores per-cycle limit")
	}
	d.Step()
	if !d.CanInject(0, mkPacket(d.cfg, ReadReply, 3)) {
		t.Fatal("overlay refuses next-cycle injection")
	}
	if d.NIOccupancyAvgFlits() < 0 {
		t.Fatal("occupancy negative")
	}
}
