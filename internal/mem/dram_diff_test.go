package mem

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// refTick is DRAM.Tick without its two gates: every memory cycle scans the
// queue for completions and then for an FR-FCFS pick. It is the reference
// the gated Tick is held to.
func refTick(d *DRAM) {
	d.now++
	if len(d.queue) > 0 {
		d.BusyCycles++
	}
	for i := 0; i < len(d.queue); {
		r := d.queue[i]
		if r.inService && r.completeAt <= d.now {
			d.banks[r.bank].busy = false
			d.done = append(d.done, r)
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			continue
		}
		i++
	}
	var pick *dramReq
	for _, r := range d.queue {
		if r.inService || d.banks[r.bank].busy {
			continue
		}
		if d.banks[r.bank].openRow == r.row {
			pick = r
			break
		}
		if pick == nil {
			pick = r
		}
	}
	if pick != nil {
		d.issue(pick)
	}
}

// TestGatedTickMatchesReference drives a gated and a reference channel with
// the same random enqueue streams — bursts and idle gaps, row hits and bank
// conflicts, reads, writes and writebacks, small queues that fill — and
// requires the same state after every cycle: queue, banks, issue and
// completion schedule (each request's completeAt), completion order and
// every statistic.
func TestGatedTickMatchesReference(t *testing.T) {
	src := rng.New(23)
	for stream := 0; stream < 20; stream++ {
		cfg := DefaultDRAMConfig()
		cfg.Banks = 1 + src.Intn(16)
		cfg.QueueCap = 1 + src.Intn(32)
		gated, ref := NewDRAM(cfg), NewDRAM(cfg)
		rows := uint64(1 + src.Intn(8)) // few rows: plenty of row hits
		rate := 1 + src.Intn(12)        // one enqueue attempt every ~rate cycles
		var gatedOut, refOut []*Transaction
		for cycle := 0; cycle < 3000; cycle++ {
			if cycle%500 < 400 && src.Intn(rate) == 0 {
				line := uint64(src.Intn(int(rows)*cfg.Banks*cfg.RowBytes/128)) * 128
				txn := &Transaction{ID: uint64(cycle), Addr: line, IsWrite: src.Bool(0.3)}
				wb := txn.IsWrite && src.Bool(0.3)
				if gated.Enqueue(txn, wb) != ref.Enqueue(txn, wb) {
					t.Fatalf("stream %d cycle %d: Enqueue disagrees", stream, cycle)
				}
			}
			gated.Tick()
			refTick(ref)
			gatedOut = gated.TakeCompleted(gatedOut[:0], nil)
			refOut = ref.TakeCompleted(refOut[:0], nil)
			g, r := *gated, *ref
			g.nextDone, g.issueStale, r.nextDone, r.issueStale = 0, false, 0, false
			if !reflect.DeepEqual(g, r) || !reflect.DeepEqual(gatedOut, refOut) {
				t.Fatalf("stream %d cycle %d: gated channel diverged from the reference\ngated %+v\nref   %+v", stream, cycle, g, r)
			}
		}
		if ref.Reads+ref.Writes == 0 || ref.RowHits == 0 || ref.RowMisses == 0 {
			t.Fatalf("stream %d issued nothing interesting: %+v", stream, *ref)
		}
	}
}
