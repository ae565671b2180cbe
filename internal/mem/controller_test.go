package mem

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/rng"
)

// stubFabric is a reply fabric that accepts packets unless blocked.
type stubFabric struct {
	blocked  bool
	accepted []*noc.Packet
	now      int64
}

func (s *stubFabric) CanInject(node int, pkt *noc.Packet) bool { return !s.blocked }
func (s *stubFabric) Inject(node int, pkt *noc.Packet) bool {
	if s.blocked {
		return false
	}
	s.accepted = append(s.accepted, pkt)
	return true
}
func (s *stubFabric) Step()                                                      { s.now++ }
func (s *stubFabric) Now() int64                                                 { return s.now }
func (s *stubFabric) SetEjectHandler(func(node int, pkt *noc.Packet, now int64)) {}
func (s *stubFabric) InFlight() int                                              { return 0 }
func (s *stubFabric) Stats() *noc.NetStats                                       { return &noc.NetStats{} }
func (s *stubFabric) ResetStats()                                                {}
func (s *stubFabric) GetPacket() *noc.Packet                                     { return &noc.Packet{} }
func (s *stubFabric) PutPacket(*noc.Packet)                                      {}

func newTestMC(t *testing.T, fab noc.Fabric) *Controller {
	t.Helper()
	mc, err := NewController(7, DefaultMCConfig(), fab, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func reqPacket(txn *Transaction) *noc.Packet {
	typ := noc.ReadRequest
	if txn.IsWrite {
		typ = noc.WriteRequest
	}
	return &noc.Packet{Type: typ, Dst: 7, Size: noc.PacketSize(typ, 128, 128), Payload: txn}
}

// tickN advances the controller n NoC cycles with the 1.75x memory clock
// approximated as 2 ticks per cycle (timing exactness is not under test).
func tickN(mc *Controller, from int64, n int) int64 {
	for i := 0; i < n; i++ {
		mc.Tick(from, 2)
		from++
	}
	return from
}

func TestReadMissProducesReadReply(t *testing.T) {
	fab := &stubFabric{}
	mc := newTestMC(t, fab)
	txn := &Transaction{ID: 1, Addr: 0x1000, SrcNode: 3}
	mc.Receive(reqPacket(txn))
	tickN(mc, 0, 300)
	if len(fab.accepted) != 1 {
		t.Fatalf("%d replies, want 1", len(fab.accepted))
	}
	pkt := fab.accepted[0]
	if pkt.Type != noc.ReadReply || pkt.Dst != 3 || pkt.Payload.(*Transaction) != txn {
		t.Fatalf("bad reply packet %+v", pkt)
	}
	if mc.ReadMisses != 1 || mc.ReadHits != 0 {
		t.Fatalf("misses=%d hits=%d", mc.ReadMisses, mc.ReadHits)
	}
}

func TestReadHitAfterFill(t *testing.T) {
	fab := &stubFabric{}
	mc := newTestMC(t, fab)
	mc.Receive(reqPacket(&Transaction{ID: 1, Addr: 0x1000, SrcNode: 3}))
	tickN(mc, 0, 300)
	mc.Receive(reqPacket(&Transaction{ID: 2, Addr: 0x1000, SrcNode: 4}))
	tickN(mc, 300, 100)
	if mc.ReadHits != 1 {
		t.Fatalf("second read of same line: hits=%d, want 1", mc.ReadHits)
	}
	if len(fab.accepted) != 2 {
		t.Fatalf("replies = %d, want 2", len(fab.accepted))
	}
}

func TestWriteProducesWriteReply(t *testing.T) {
	fab := &stubFabric{}
	mc := newTestMC(t, fab)
	mc.Receive(reqPacket(&Transaction{ID: 1, Addr: 0x2000, IsWrite: true, SrcNode: 5}))
	tickN(mc, 0, 100)
	if len(fab.accepted) != 1 {
		t.Fatalf("%d replies, want 1", len(fab.accepted))
	}
	if fab.accepted[0].Type != noc.WriteReply {
		t.Fatalf("reply type = %v, want write_reply", fab.accepted[0].Type)
	}
	if fab.accepted[0].Size != 1 {
		t.Fatalf("write reply size = %d flits, want 1", fab.accepted[0].Size)
	}
}

func TestMergedReadsFanOut(t *testing.T) {
	fab := &stubFabric{}
	mc := newTestMC(t, fab)
	// Two reads to the same line from different nodes before the fill.
	mc.Receive(reqPacket(&Transaction{ID: 1, Addr: 0x3000, SrcNode: 1}))
	mc.Receive(reqPacket(&Transaction{ID: 2, Addr: 0x3000, SrcNode: 2}))
	tickN(mc, 0, 400)
	if mc.MergedReads != 1 {
		t.Fatalf("merged = %d, want 1", mc.MergedReads)
	}
	if mc.ReadMisses != 1 {
		t.Fatalf("misses = %d, want 1 (second should merge)", mc.ReadMisses)
	}
	if len(fab.accepted) != 2 {
		t.Fatalf("replies = %d, want 2 (fan-out)", len(fab.accepted))
	}
	dsts := map[int]bool{fab.accepted[0].Dst: true, fab.accepted[1].Dst: true}
	if !dsts[1] || !dsts[2] {
		t.Fatalf("fan-out destinations wrong: %v", dsts)
	}
}

func TestStallAccountingWhenNIBlocked(t *testing.T) {
	fab := &stubFabric{blocked: true}
	mc := newTestMC(t, fab)
	mc.Receive(reqPacket(&Transaction{ID: 1, Addr: 0x4000, SrcNode: 1}))
	tickN(mc, 0, 300)
	if len(fab.accepted) != 0 {
		t.Fatal("blocked fabric accepted a packet")
	}
	if mc.BlockedCycle == 0 {
		t.Fatal("no blocked cycles recorded")
	}
	// Unblock: the reply goes out and stall time covers the waiting.
	fab.blocked = false
	tickN(mc, 300, 10)
	if len(fab.accepted) != 1 {
		t.Fatal("reply not sent after unblocking")
	}
	if mc.StallTime <= 0 {
		t.Fatalf("stall time = %d, want > 0", mc.StallTime)
	}
}

func TestIngressBackpressure(t *testing.T) {
	fab := &stubFabric{blocked: true}
	mc := newTestMC(t, fab)
	cap := DefaultMCConfig().InQueueCap
	for i := 0; i < cap; i++ {
		if !mc.CanReceive() {
			t.Fatalf("ingress refused at %d/%d", i, cap)
		}
		mc.Receive(reqPacket(&Transaction{ID: uint64(i + 1), Addr: uint64(i) * 128, SrcNode: 1}))
	}
	if mc.CanReceive() {
		t.Fatal("ingress accepted beyond capacity")
	}
}

func TestPendingDrainsToZero(t *testing.T) {
	fab := &stubFabric{}
	mc := newTestMC(t, fab)
	for i := 0; i < 8; i++ {
		mc.Receive(reqPacket(&Transaction{ID: uint64(i + 1), Addr: uint64(i) * 4096, SrcNode: 1}))
	}
	tickN(mc, 0, 2000)
	if mc.Pending() != 0 {
		t.Fatalf("pending = %d after drain", mc.Pending())
	}
	if len(fab.accepted) != 8 {
		t.Fatalf("replies = %d, want 8", len(fab.accepted))
	}
}

func TestL2WritebackPath(t *testing.T) {
	fab := &stubFabric{}
	mc := newTestMC(t, fab)
	// Fill more distinct dirty lines than one L2 set holds (8 ways): 9
	// writes mapping to the same set force a dirty eviction -> writeback.
	setStride := uint64(128 * DefaultMCConfig().L2.Sets())
	now := int64(0)
	for i := 0; i < 9; i++ {
		mc.Receive(reqPacket(&Transaction{ID: uint64(i + 1), Addr: uint64(i) * setStride, IsWrite: true, SrcNode: 1}))
		now = tickN(mc, now, 60)
	}
	tickN(mc, now, 500)
	if mc.Writebacks == 0 {
		t.Fatal("no L2 writeback generated")
	}
	if mc.DRAM().Writes == 0 {
		t.Fatal("writeback never reached DRAM")
	}
}

// mcSnapshot is every stat and queue length of a controller.
func mcSnapshot(mc *Controller) [15]int64 {
	return [15]int64{
		int64(mc.ReadHits), int64(mc.ReadMisses), int64(mc.WriteHits), int64(mc.WriteMisses),
		int64(mc.MergedReads), int64(mc.Writebacks), int64(mc.RepliesSent), mc.StallTime, mc.BlockedCycle,
		int64(len(mc.inQ)), int64(len(mc.l2Pipe)), int64(len(mc.pendingReads)), int64(len(mc.dramDone)),
		int64(len(mc.replyQ)), int64(mc.dram.Pending()),
	}
}

// TestReplyFabricShutGolden holds the reply fabric shut for 1000 cycles, so
// DRAM fills pile up behind a full reply queue, then opens it and drains.
// The constants were recorded before collectDRAM learned to hold a fill back
// on the queue length alone, without looking up its readers.
func TestReplyFabricShutGolden(t *testing.T) {
	fab := &stubFabric{}
	mc := newTestMC(t, fab)
	r := rng.New(21)
	var id uint64
	run := func(from int64, cycles int, feed bool) int64 {
		for i := 0; i < cycles; i++ {
			if feed && mc.CanReceive() && r.Intn(2) == 0 {
				id++
				line := uint64(r.Intn(4096))
				if r.Intn(3) == 0 {
					line = uint64(r.Intn(8)) // a few hot lines: merges and L2 hits
				}
				mc.Receive(reqPacket(&Transaction{ID: id, IsWrite: r.Intn(4) == 0, Addr: line * 128, SrcNode: 3}))
			}
			from = tickN(mc, from, 1)
		}
		return from
	}
	now := run(0, 300, true) // open: warm the L2 and the DRAM row buffers
	fab.blocked = true
	now = run(now, 1000, true)
	shut := mcSnapshot(mc)
	fab.blocked = false
	run(now, 3000, false)
	drained := mcSnapshot(mc)

	wantShut := [15]int64{28, 83, 11, 37, 4, 0, 134, 22, 1000, 8, 8, 13, 13, 8, 0}
	wantDrained := [15]int64{30, 88, 12, 37, 4, 0, 171, 8147, 1000, 0, 0, 0, 0, 0, 0}
	if shut != wantShut || drained != wantDrained {
		t.Fatalf("shut %v, recorded %v\ndrained %v, recorded %v", shut, wantShut, drained, wantDrained)
	}
}
