package mem

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
)

// refControllerTick is Controller.Tick without its gates: the DRAM runs its
// ungated refTick every memory cycle, even when the controller is inert, and
// collectDRAM walks every held fill every tick, full reply queue or not,
// looking its readers up in pendingReads. It is the reference the gated Tick
// is held to.
func refControllerTick(c *Controller, now int64, memTicks int) {
	for i := 0; i < memTicks; i++ {
		refTick(c.dram)
	}
	c.completed = c.dram.TakeCompleted(c.completed[:0], c.takeWB)
	for _, txn := range c.completed {
		if !txn.IsWrite {
			c.dramDone = append(c.dramDone, c.pendingReads[txn.Addr])
		}
	}
	kept := c.dramDone[:0]
	for _, f := range c.dramDone {
		readers := c.pendingReads[f.addr].readers
		if len(c.replyQ)+len(readers) > c.cfg.ReplyQueueCap || !c.dram.CanAccept() {
			kept = append(kept, f)
			continue
		}
		c.install(f, now)
	}
	c.dramDone = kept
	c.drainL2Pipe(now)
	c.processRequest(now)
	c.injectReply(now)
}

// mcState encodes every queue, counter and DRAM field of a controller, with
// transactions named by ID (the two controllers compared hold distinct
// copies). Only the DRAM's nextDone is left out: the reference never resets
// it.
func mcState(c *Controller, buf []int64) []int64 {
	txns := func(tag int64, ts []*Transaction) {
		buf = append(buf, tag, int64(len(ts)))
		for _, t := range ts {
			buf = append(buf, int64(t.ID), t.ReadyAt)
		}
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	txns(-1, c.inQ)
	for _, e := range c.l2Pipe {
		buf = append(buf, -2, int64(e.txn.ID), e.doneAt)
	}
	for _, f := range c.dramDone {
		txns(int64(f.addr), f.readers)
	}
	txns(-3, c.replyQ)
	addrs := make([]uint64, 0, len(c.pendingReads))
	for a := range c.pendingReads {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		txns(int64(a), c.pendingReads[a].readers)
	}
	snap := mcSnapshot(c)
	buf = append(buf, snap[:]...)
	d := c.dram
	buf = append(buf, d.now, d.busFreeAt, d.lastActAt, int64(d.issuable), int64(len(d.done)),
		int64(d.Reads), int64(d.Writes), int64(d.RowHits), int64(d.RowMisses), int64(d.QueueStalls), int64(d.BusyCycles))
	for _, b := range d.banks {
		buf = append(buf, b.openRow, b.readyAt, b.actAt, int64(b.waiting), flag(b.busy))
	}
	for _, r := range d.queue {
		buf = append(buf, int64(r.txn.ID), r.row, r.arrival, r.completeAt, int64(r.bank), flag(r.inService), flag(r.writeback))
	}
	return buf
}

// mcInert reports whether c's next Tick takes the inert gate.
func mcInert(c *Controller, now int64, memTicks int) bool {
	return len(c.inQ) == 0 && len(c.dramDone) == 0 && len(c.replyQ) == 0 &&
		(len(c.l2Pipe) == 0 || c.l2Pipe[0].doneAt > now) && c.dram.inert(memTicks)
}

// TestControllerGatesMatchReference drives a gated controller and the
// ungated reference with the same random request streams — reads with hot
// lines that merge, writes, a small L2 that evicts dirty lines — through a
// reply fabric that shuts for long stretches, so the reply queue fills and
// fills pile up behind it, and through idle stretches, so the controller
// goes inert with DRAM work in flight. Every queue, counter and the DRAM
// clock must agree after every cycle, and each gate must have been taken.
func TestControllerGatesMatchReference(t *testing.T) {
	src := rng.New(41)
	parks, inerts, merges := 0, 0, uint64(0)
	var gState, rState []int64
	for stream := 0; stream < 24; stream++ {
		cfg := DefaultMCConfig()
		cfg.L2 = cache.Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2}
		cfg.L2Latency = src.Intn(24)
		cfg.L2PipeCap = 1 + src.Intn(8)
		cfg.InQueueCap = 1 + src.Intn(8)
		cfg.ReplyQueueCap = 1 + src.Intn(8)
		cfg.DRAM.Banks = 1 + src.Intn(16)
		cfg.DRAM.QueueCap = 2 + src.Intn(31)
		gFab, rFab := &stubFabric{}, &stubFabric{}
		gated, err := NewController(7, cfg, gFab, 128, 128)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewController(7, cfg, rFab, 128, 128)
		if err != nil {
			t.Fatal(err)
		}
		lines := 8 + src.Intn(256)
		var id uint64
		feed, shut := true, false
		for now := int64(0); now < 4000; now++ {
			// Phases: feeding or idle, reply fabric open or shut.
			if src.Intn(150) == 0 {
				feed = !feed
			}
			if src.Intn(100) == 0 {
				shut = !shut
			}
			gFab.blocked, rFab.blocked = shut, shut
			if feed && gated.CanReceive() && src.Intn(2) == 0 {
				id++
				line := uint64(src.Intn(lines))
				if src.Intn(3) == 0 {
					line = uint64(src.Intn(4)) // hot lines: merges and L2 hits
				}
				write := src.Intn(4) == 0
				gated.Receive(reqPacket(&Transaction{ID: id, IsWrite: write, Addr: line * 128, SrcNode: 3}))
				ref.Receive(reqPacket(&Transaction{ID: id, IsWrite: write, Addr: line * 128, SrcNode: 3}))
			}
			memTicks := 1 + src.Intn(2)
			if len(gated.replyQ) >= cfg.ReplyQueueCap && len(gated.dramDone) > 0 {
				parks++
			}
			if mcInert(gated, now, memTicks) {
				inerts++
			}
			gated.Tick(now, memTicks)
			refControllerTick(ref, now, memTicks)
			gState, rState = mcState(gated, gState[:0]), mcState(ref, rState[:0])
			if !slices.Equal(gState, rState) {
				t.Fatalf("stream %d cycle %d: gated controller diverged from the reference\ngated %v\nref   %v", stream, now, gState, rState)
			}
			if len(gFab.accepted) != len(rFab.accepted) {
				t.Fatalf("stream %d cycle %d: %d replies sent, reference %d", stream, now, len(gFab.accepted), len(rFab.accepted))
			}
			for i := range gFab.accepted {
				g, r := gFab.accepted[i], rFab.accepted[i]
				if g.Type != r.Type || g.Size != r.Size || g.Payload.(*Transaction).ID != r.Payload.(*Transaction).ID {
					t.Fatalf("stream %d cycle %d: reply %+v, reference %+v", stream, now, g, r)
				}
			}
			gFab.accepted, rFab.accepted = gFab.accepted[:0], rFab.accepted[:0]
		}
		merges += gated.MergedReads
	}
	if parks == 0 || inerts == 0 || merges == 0 {
		t.Fatalf("gates never taken: %d parked ticks, %d inert ticks, %d merged reads", parks, inerts, merges)
	}
}
