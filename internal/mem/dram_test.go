package mem

import (
	"testing"
	"testing/quick"
)

func testDRAM() *DRAM {
	return NewDRAM(DefaultDRAMConfig())
}

func drainOne(t *testing.T, d *DRAM, limit int) *Transaction {
	t.Helper()
	for i := 0; i < limit; i++ {
		d.Tick()
		var out []*Transaction
		out = d.TakeCompleted(out, nil)
		if len(out) > 0 {
			return out[0]
		}
	}
	t.Fatalf("no completion within %d cycles", limit)
	return nil
}

func TestDRAMReadCompletes(t *testing.T) {
	d := testDRAM()
	txn := &Transaction{ID: 1, Addr: 0}
	if !d.Enqueue(txn, false) {
		t.Fatal("enqueue rejected on empty queue")
	}
	got := drainOne(t, d, 1000)
	if got != txn {
		t.Fatal("wrong transaction completed")
	}
	if d.Reads != 1 || d.Writes != 0 {
		t.Fatalf("reads=%d writes=%d", d.Reads, d.Writes)
	}
}

func TestDRAMClosedRowTiming(t *testing.T) {
	// First access to a closed bank: ACT at t, RD at t+tRCD, data start
	// t+tRCD+tCL, end +burst. With Table I numbers: 12+12+8 = 32 cycles
	// minimum after issue (issue happens on the first tick).
	d := testDRAM()
	d.Enqueue(&Transaction{ID: 1, Addr: 0}, false)
	cycles := 0
	for {
		d.Tick()
		cycles++
		var out []*Transaction
		if out = d.TakeCompleted(out, nil); len(out) > 0 {
			break
		}
		if cycles > 100 {
			t.Fatal("no completion")
		}
	}
	want := 1 + 12 + 12 + 8 // tick of issue + tRCD + tCL + burst
	if cycles != want {
		t.Fatalf("closed-row read took %d cycles, want %d", cycles, want)
	}
}

func TestDRAMRowHitFasterThanConflict(t *testing.T) {
	cfg := DefaultDRAMConfig()
	// Same row twice.
	d1 := NewDRAM(cfg)
	d1.Enqueue(&Transaction{ID: 1, Addr: 0}, false)
	drainOne(t, d1, 1000)
	start := d1.now
	d1.Enqueue(&Transaction{ID: 2, Addr: 128}, false)
	drainOne(t, d1, 1000)
	hitLat := d1.now - start

	// Row conflict: same bank, different row (same bank id needs a stride
	// of RowBytes*Banks).
	d2 := NewDRAM(cfg)
	d2.Enqueue(&Transaction{ID: 1, Addr: 0}, false)
	drainOne(t, d2, 1000)
	start = d2.now
	d2.Enqueue(&Transaction{ID: 2, Addr: uint64(cfg.RowBytes * cfg.Banks)}, false)
	drainOne(t, d2, 1000)
	confLat := d2.now - start

	if hitLat >= confLat {
		t.Fatalf("row hit (%d) not faster than conflict (%d)", hitLat, confLat)
	}
	if d1.RowHits != 1 {
		t.Fatalf("row hits = %d, want 1", d1.RowHits)
	}
	if d2.RowMisses != 2 {
		t.Fatalf("row misses = %d, want 2", d2.RowMisses)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := DefaultDRAMConfig()
	d := NewDRAM(cfg)
	// Open a row on bank 0.
	d.Enqueue(&Transaction{ID: 1, Addr: 0}, false)
	drainOne(t, d, 1000)
	// Enqueue a conflict (older) then a row hit (younger) on bank 0.
	conflict := &Transaction{ID: 2, Addr: uint64(cfg.RowBytes * cfg.Banks)}
	hit := &Transaction{ID: 3, Addr: 256}
	d.Enqueue(conflict, false)
	d.Enqueue(hit, false)
	first := drainOne(t, d, 1000)
	if first != hit {
		t.Fatalf("FR-FCFS served the conflict before the row hit")
	}
}

func TestDRAMQueueBackpressure(t *testing.T) {
	cfg := DefaultDRAMConfig()
	cfg.QueueCap = 2
	d := NewDRAM(cfg)
	if !d.Enqueue(&Transaction{ID: 1, Addr: 0}, false) ||
		!d.Enqueue(&Transaction{ID: 2, Addr: 128}, false) {
		t.Fatal("enqueues under capacity rejected")
	}
	if d.Enqueue(&Transaction{ID: 3, Addr: 256}, false) {
		t.Fatal("enqueue beyond capacity accepted")
	}
	if d.QueueStalls != 1 {
		t.Fatalf("QueueStalls = %d, want 1", d.QueueStalls)
	}
}

func TestDRAMWritebackCallback(t *testing.T) {
	d := testDRAM()
	wb := &Transaction{ID: 9, Addr: 0, IsWrite: true}
	d.Enqueue(wb, true)
	var gotWB *Transaction
	for i := 0; i < 1000; i++ {
		d.Tick()
		var out []*Transaction
		out = d.TakeCompleted(out, func(t *Transaction) { gotWB = t })
		if len(out) > 0 {
			t.Fatal("writeback surfaced as a normal completion")
		}
		if gotWB != nil {
			break
		}
	}
	if gotWB != wb {
		t.Fatal("writeback completion not delivered via callback")
	}
}

// TestDRAMConservationQuick: every enqueued transaction completes exactly
// once, for arbitrary small batches.
func TestDRAMConservationQuick(t *testing.T) {
	f := func(addrs []uint16) bool {
		d := testDRAM()
		want := make(map[uint64]int)
		pending := 0
		for _, a := range addrs[:min(len(addrs), 16)] {
			txn := &Transaction{ID: uint64(a) + 1, Addr: uint64(a) * 128}
			if d.Enqueue(txn, false) {
				want[txn.ID]++
				pending++
			}
		}
		for i := 0; i < 20000 && pending > 0; i++ {
			d.Tick()
			var out []*Transaction
			for _, txn := range d.TakeCompleted(out, nil) {
				want[txn.ID]--
				pending--
			}
		}
		for _, n := range want {
			if n != 0 {
				return false
			}
		}
		return pending == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBankParallelism: requests to distinct banks overlap; N requests to N
// banks finish much faster than N serialised conflict accesses to 1 bank.
func TestBankParallelism(t *testing.T) {
	cfg := DefaultDRAMConfig()
	run := func(stride uint64) int64 {
		d := NewDRAM(cfg)
		for i := uint64(0); i < 8; i++ {
			d.Enqueue(&Transaction{ID: i + 1, Addr: i * stride}, false)
		}
		left := 8
		for i := 0; i < 100000 && left > 0; i++ {
			d.Tick()
			var out []*Transaction
			left -= len(d.TakeCompleted(out, nil))
		}
		return d.now
	}
	parallel := run(uint64(cfg.RowBytes))           // distinct banks
	serial := run(uint64(cfg.RowBytes * cfg.Banks)) // same bank, conflicts
	if parallel >= serial {
		t.Fatalf("bank-parallel run (%d) not faster than serial conflicts (%d)", parallel, serial)
	}
}

func TestDRAMConfigValidate(t *testing.T) {
	bad := DefaultDRAMConfig()
	bad.Banks = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero banks accepted")
	}
	bad = DefaultDRAMConfig()
	bad.TRP = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative timing accepted")
	}
}
