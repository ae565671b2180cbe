package mem

import "testing"

func BenchmarkDRAMTickStreaming(b *testing.B) {
	d := NewDRAM(DefaultDRAMConfig())
	var out []*Transaction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.CanAccept() {
			d.Enqueue(&Transaction{ID: uint64(i) + 1, Addr: uint64(i) * 128}, false)
		}
		d.Tick()
		out = d.TakeCompleted(out[:0], nil)
	}
}

func BenchmarkControllerTick(b *testing.B) {
	fab := &stubFabric{}
	mc, err := NewController(0, DefaultMCConfig(), fab, 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mc.CanReceive() {
			mc.Receive(reqPacket(&Transaction{ID: uint64(i) + 1, Addr: uint64(i) * 512, SrcNode: 1}))
		}
		mc.Tick(int64(i), 2)
	}
}

// BenchmarkControllerTickReplyFull ticks a controller in the reply-saturated
// state: the reply fabric refuses every packet, the reply queue is full and
// about 24 completed fills wait behind it for reply slots. parks/op is the
// share of ticks that found the queue full with fills held, so collectDRAM
// left them parked.
func BenchmarkControllerTickReplyFull(b *testing.B) {
	fab := &stubFabric{blocked: true}
	mc, err := NewController(0, DefaultMCConfig(), fab, 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	now := int64(0)
	for id := uint64(1); len(mc.dramDone) < 24; now++ {
		if now > 100000 {
			b.Fatalf("only %d fills held after %d cycles", len(mc.dramDone), now)
		}
		if mc.CanReceive() {
			mc.Receive(reqPacket(&Transaction{ID: id, Addr: id * 512, SrcNode: 1}))
			id++
		}
		mc.Tick(now, 2)
	}
	parks := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(mc.replyQ) >= mc.cfg.ReplyQueueCap && len(mc.dramDone) > 0 {
			parks++
		}
		mc.Tick(now, 2)
		now++
	}
	b.ReportMetric(float64(parks)/float64(b.N), "parks/op")
}
