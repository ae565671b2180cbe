// Package mem implements the memory-controller side of the simulated GPGPU:
// a banked GDDR5 timing model with an FR-FCFS scheduler (Table I timing),
// and the memory-controller node that combines an L2 bank, the DRAM channel
// and the reply-generation path whose stalls the paper measures (Fig 12).
package mem

import (
	"fmt"
	"math"

	"repro/internal/slab"
)

// Transaction is one memory request travelling through the system; it rides
// as the Payload of NoC packets.
type Transaction struct {
	ID      uint64
	IsWrite bool
	Addr    uint64 // line-aligned byte address
	Core    int    // issuing core index
	SrcNode int    // issuing CC node id
	// ReadyAt is when the reply data became ready in the MC, for the
	// stall-time accounting of Fig 12.
	ReadyAt int64
}

// DRAMConfig is the GDDR5 channel geometry and timing, in memory-clock
// cycles (Table I: tRP=12, tRC=40, tRRD=6, tRAS=28, tRCD=12, tCL=12 at
// 1.75 GHz).
type DRAMConfig struct {
	Banks    int
	RowBytes int
	TRP      int
	TRC      int
	TRRD     int
	TRAS     int
	TRCD     int
	TCL      int
	// BurstCycles is the data-bus occupancy of one line transfer: a 128B
	// line over a 32-pin QDR interface moves 16B per command cycle, i.e. 8
	// cycles (§3's 28 GB/s per MC).
	BurstCycles int
	// QueueCap bounds the scheduler queue; a full queue back-pressures L2.
	QueueCap int
}

// DefaultDRAMConfig returns Table I's GDDR5 parameters.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Banks:       16,
		RowBytes:    2048,
		TRP:         12,
		TRC:         40,
		TRRD:        6,
		TRAS:        28,
		TRCD:        12,
		TCL:         12,
		BurstCycles: 8,
		QueueCap:    32,
	}
}

// Validate checks the configuration.
func (c DRAMConfig) Validate() error {
	if c.Banks <= 0 || c.RowBytes <= 0 || c.BurstCycles <= 0 || c.QueueCap <= 0 {
		return fmt.Errorf("mem: non-positive DRAM geometry %+v", c)
	}
	if c.TRP < 0 || c.TRC < 0 || c.TRRD < 0 || c.TRAS < 0 || c.TRCD < 0 || c.TCL < 0 {
		return fmt.Errorf("mem: negative DRAM timing %+v", c)
	}
	return nil
}

type bankState struct {
	openRow int64 // -1 when closed
	readyAt int64 // earliest next column command
	actAt   int64 // last activate time (tRAS/tRC reference)
	// waiting counts the bank's queued requests not yet in service.
	waiting int32
	busy    bool // a request is in service on this bank
}

// dramReq is one queued request, held by value: the scans read it and its
// bank's state without chasing a pointer.
type dramReq struct {
	txn        *Transaction
	row        int64
	arrival    int64
	completeAt int64
	bank       int32
	inService  bool
	writeback  bool // internal L2 writeback: no reply generated
}

// DRAM is one GDDR5 channel with FR-FCFS scheduling. Time is in memory
// cycles; the caller ticks it from its clock domain.
type DRAM struct {
	cfg   DRAMConfig
	banks []bankState
	queue []dramReq // arrival order
	now   int64

	busFreeAt int64
	lastActAt int64

	done []dramReq // completed, awaiting pickup

	// nextDone is the earliest completeAt of an in-service request
	// (math.MaxInt64 when none): before it the completion scan finds
	// nothing. issuable counts the banks that are not busy and have a
	// waiting request: an FR-FCFS pick exists exactly when it is non-zero
	// (a request in service keeps its bank busy), so the issue scan runs
	// only then.
	nextDone int64
	issuable int

	// Stats.
	Reads       uint64
	Writes      uint64
	RowHits     uint64
	RowMisses   uint64
	QueueStalls uint64
	BusyCycles  uint64
}

// NewDRAM builds a channel; invalid config panics (construction bug).
func NewDRAM(cfg DRAMConfig) *DRAM {
	d := new(DRAM)
	d.Init(cfg)
	return d
}

// Init makes d an idle channel of cfg in place, reusing its bank table and
// queues; invalid config panics, as in NewDRAM.
func (d *DRAM) Init(cfg DRAMConfig) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	queue := d.queue[:0]
	if cap(queue) < cfg.QueueCap {
		queue = make([]dramReq, 0, cfg.QueueCap)
	}
	// Start timing references far in the past so fresh banks see no
	// phantom tRC/tRRD/tRAS constraints.
	const longAgo = int64(-1) << 30
	*d = DRAM{
		cfg:       cfg,
		banks:     d.banks,
		queue:     queue,
		done:      d.done[:0],
		lastActAt: longAgo,
		nextDone:  math.MaxInt64,
	}
	slab.Fit(&d.banks, cfg.Banks)
	for i := range d.banks {
		d.banks[i].openRow = -1
		d.banks[i].actAt = longAgo
		d.banks[i].readyAt = longAgo
	}
}

// CanAccept reports whether the scheduler queue has space.
func (d *DRAM) CanAccept() bool { return len(d.queue) < d.cfg.QueueCap }

// Enqueue adds a transaction; writeback marks internal L2 evictions that
// need no reply. Returns false when the queue is full.
func (d *DRAM) Enqueue(txn *Transaction, writeback bool) bool {
	if !d.CanAccept() {
		d.QueueStalls++
		return false
	}
	bank, row := d.mapAddr(txn.Addr)
	d.queue = append(d.queue, dramReq{txn: txn, bank: int32(bank), row: row, arrival: d.now, writeback: writeback})
	b := &d.banks[bank]
	if b.waiting++; b.waiting == 1 && !b.busy {
		d.issuable++
	}
	return true
}

// mapAddr maps a line address to (bank, row): consecutive rows interleave
// across banks so streaming accesses exploit bank-level parallelism.
func (d *DRAM) mapAddr(addr uint64) (bank int, row int64) {
	rowID := addr / uint64(d.cfg.RowBytes)
	return int(rowID % uint64(d.cfg.Banks)), int64(rowID / uint64(d.cfg.Banks))
}

// Pending returns queued plus in-service requests.
func (d *DRAM) Pending() int { return len(d.queue) }

// Quiescent reports whether the channel holds no queued, in-service or
// completed-but-unclaimed work. While quiescent, Tick only advances the
// clock (see AdvanceIdle).
func (d *DRAM) Quiescent() bool { return len(d.queue) == 0 && len(d.done) == 0 }

// inert reports whether the next n Ticks would neither complete nor issue a
// request, nor find one awaiting pickup: AdvanceIdle(n) then stands in for
// them.
func (d *DRAM) inert(n int) bool {
	return d.issuable == 0 && d.nextDone > d.now+int64(n) && len(d.done) == 0
}

// AdvanceIdle advances the memory clock by n cycles in O(1). It is exactly
// equivalent to n Ticks while inert(n), in particular while Quiescent():
// with nothing to complete or issue, Tick only increments now and, while
// requests are queued, BusyCycles.
func (d *DRAM) AdvanceIdle(n int) {
	d.now += int64(n)
	if len(d.queue) > 0 {
		d.BusyCycles += uint64(n)
	}
}

// Tick advances one memory cycle: completes in-service requests and issues
// at most one new request chosen FR-FCFS (first ready row-hit, else oldest).
// The nextDone and issuable gates skip the two scans while their outcome is
// known to be empty.
func (d *DRAM) Tick() {
	d.now++
	if len(d.queue) > 0 {
		d.BusyCycles++
	}
	if d.now >= d.nextDone {
		d.complete()
	}
	if d.issuable == 0 {
		return
	}

	// FR-FCFS issue: scan arrival order; first row-hit to a free bank wins,
	// else the oldest request to a free bank. A request in service has a
	// busy bank, so the bank alone decides eligibility.
	pick := -1
	for i := range d.queue {
		r := &d.queue[i]
		b := &d.banks[r.bank]
		if b.busy {
			continue
		}
		if b.openRow == r.row {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	d.issue(pick)
}

// complete retires the in-service requests whose data transfer finished, in
// queue order, and moves nextDone to the earliest one still in service.
func (d *DRAM) complete() {
	d.nextDone = math.MaxInt64
	for i := 0; i < len(d.queue); {
		r := &d.queue[i]
		if r.inService && r.completeAt <= d.now {
			d.retire(i)
			continue
		}
		if r.inService {
			d.nextDone = min(d.nextDone, r.completeAt)
		}
		i++
	}
}

// retire moves in-service request i from the queue to done and frees its
// bank.
func (d *DRAM) retire(i int) {
	r := &d.queue[i]
	b := &d.banks[r.bank]
	b.busy = false
	if b.waiting > 0 {
		d.issuable++
	}
	d.done = append(d.done, *r)
	d.queue = append(d.queue[:i], d.queue[i+1:]...)
}

// issue computes the full service schedule of queued request i analytically
// and reserves the bank and data bus.
func (d *DRAM) issue(i int) {
	r := &d.queue[i]
	b := &d.banks[r.bank]
	b.waiting--
	d.issuable-- // the bank had a waiting request and was not busy
	t := d.now
	var colAt int64
	switch {
	case b.openRow == r.row:
		d.RowHits++
		colAt = maxI64(t, b.readyAt)
	case b.openRow >= 0:
		d.RowMisses++
		preAt := maxI64(t, b.readyAt, b.actAt+int64(d.cfg.TRAS))
		actAt := maxI64(preAt+int64(d.cfg.TRP), d.lastActAt+int64(d.cfg.TRRD), b.actAt+int64(d.cfg.TRC))
		b.actAt = actAt
		d.lastActAt = actAt
		colAt = actAt + int64(d.cfg.TRCD)
	default:
		d.RowMisses++
		actAt := maxI64(t, b.readyAt, d.lastActAt+int64(d.cfg.TRRD), b.actAt+int64(d.cfg.TRC))
		b.actAt = actAt
		d.lastActAt = actAt
		colAt = actAt + int64(d.cfg.TRCD)
	}
	dataStart := maxI64(colAt+int64(d.cfg.TCL), d.busFreeAt)
	dataEnd := dataStart + int64(d.cfg.BurstCycles)
	d.busFreeAt = dataEnd
	b.openRow = r.row
	b.readyAt = colAt + int64(d.cfg.BurstCycles) // tCCD ~ burst length
	b.busy = true
	r.inService = true
	r.completeAt = dataEnd
	d.nextDone = min(d.nextDone, dataEnd)
	if r.txn.IsWrite {
		d.Writes++
	} else {
		d.Reads++
	}
}

// TakeCompleted drains and returns completed requests in completion order.
func (d *DRAM) TakeCompleted(out []*Transaction, wantWriteback func(*Transaction)) []*Transaction {
	for i := range d.done {
		if r := &d.done[i]; r.writeback {
			if wantWriteback != nil {
				wantWriteback(r.txn)
			}
		} else {
			out = append(out, r.txn)
		}
	}
	clear(d.done) // drop the transaction pointers
	d.done = d.done[:0]
	return out
}

func maxI64(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
