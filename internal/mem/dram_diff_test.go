package mem

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// refTick is DRAM.Tick without its two gates: every memory cycle scans the
// queue for completions and then for an FR-FCFS pick, testing each request's
// own in-service flag as well as its bank. It is the reference the gated Tick
// is held to; it shares retire and issue, which keep the gates' bookkeeping,
// but never reads nextDone or issuable.
func refTick(d *DRAM) {
	d.now++
	if len(d.queue) > 0 {
		d.BusyCycles++
	}
	for i := 0; i < len(d.queue); {
		if r := &d.queue[i]; r.inService && r.completeAt <= d.now {
			d.retire(i)
			continue
		}
		i++
	}
	pick := -1
	for i := range d.queue {
		r := &d.queue[i]
		if r.inService || d.banks[r.bank].busy {
			continue
		}
		if d.banks[r.bank].openRow == r.row {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick >= 0 {
		d.issue(pick)
	}
}

// checkIssuable recounts each bank's waiting requests and the issuable banks
// from the queue.
func checkIssuable(d *DRAM) error {
	waiting := make([]int32, len(d.banks))
	for i := range d.queue {
		if r := &d.queue[i]; !r.inService {
			waiting[r.bank]++
		} else if !d.banks[r.bank].busy {
			return fmt.Errorf("request %d in service on idle bank %d", i, r.bank)
		}
	}
	issuable := 0
	for b := range d.banks {
		if d.banks[b].waiting != waiting[b] {
			return fmt.Errorf("bank %d: waiting %d, recounted %d", b, d.banks[b].waiting, waiting[b])
		}
		if waiting[b] > 0 && !d.banks[b].busy {
			issuable++
		}
	}
	if d.issuable != issuable {
		return fmt.Errorf("issuable %d, recounted %d", d.issuable, issuable)
	}
	return nil
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
			if err := checkIssuable(gated); err != nil {
				t.Fatalf("stream %d cycle %d: %v", stream, cycle, err)
			}
			g, r := *gated, *ref
			g.nextDone, r.nextDone = 0, 0
			if !reflect.DeepEqual(g, r) || !reflect.DeepEqual(gatedOut, refOut) {
				t.Fatalf("stream %d cycle %d: gated channel diverged from the reference\ngated %+v\nref   %+v", stream, cycle, g, r)
			}
		}
		if ref.Reads+ref.Writes == 0 || ref.RowHits == 0 || ref.RowMisses == 0 {
			t.Fatalf("stream %d issued nothing interesting: %+v", stream, *ref)
		}
	}
}
