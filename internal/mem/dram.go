// Package mem implements the memory-controller side of the simulated GPGPU:
// a banked GDDR5 timing model with an FR-FCFS scheduler (Table I timing),
// and the memory-controller node that combines an L2 bank, the DRAM channel
// and the reply-generation path whose stalls the paper measures (Fig 12).
package mem

import (
	"fmt"
	"math"
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
	busy    bool  // a request is in service on this bank
}

type dramReq struct {
	txn        *Transaction
	bank       int
	row        int64
	arrival    int64
	completeAt int64
	inService  bool
	writeback  bool // internal L2 writeback: no reply generated
}

// DRAM is one GDDR5 channel with FR-FCFS scheduling. Time is in memory
// cycles; the caller ticks it from its clock domain.
type DRAM struct {
	cfg   DRAMConfig
	banks []bankState
	queue []*dramReq
	now   int64

	busFreeAt int64
	lastActAt int64

	done []*dramReq // completed, awaiting pickup
	free []*dramReq // retired request records, recycled by Enqueue

	// nextDone is the earliest completeAt of an in-service request
	// (math.MaxInt64 when none): before it the completion scan finds
	// nothing. issueStale is set when the FR-FCFS scan picked nothing; a
	// pick depends only on the queue and the banks' busy/open-row state,
	// which only an Enqueue or a completion changes, and both clear it.
	nextDone   int64
	issueStale bool

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
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &DRAM{cfg: cfg, banks: make([]bankState, cfg.Banks), nextDone: math.MaxInt64}
	// Start timing references far in the past so fresh banks see no
	// phantom tRC/tRRD/tRAS constraints.
	const longAgo = int64(-1) << 30
	d.lastActAt = longAgo
	for i := range d.banks {
		d.banks[i].openRow = -1
		d.banks[i].actAt = longAgo
		d.banks[i].readyAt = longAgo
	}
	return d
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
	var r *dramReq
	if n := len(d.free); n > 0 {
		r = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		r = new(dramReq)
	}
	*r = dramReq{txn: txn, bank: bank, row: row, arrival: d.now, writeback: writeback}
	d.queue = append(d.queue, r)
	d.issueStale = false
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

// AdvanceIdle advances the memory clock by n cycles in O(1). It is exactly
// equivalent to n Ticks while Quiescent(): with an empty queue, Tick does
// nothing but increment now.
func (d *DRAM) AdvanceIdle(n int) { d.now += int64(n) }

// Tick advances one memory cycle: completes in-service requests and issues
// at most one new request chosen FR-FCFS (first ready row-hit, else oldest).
// The nextDone and issueStale gates skip the two scans while their outcome
// is known to be empty.
func (d *DRAM) Tick() {
	d.now++
	if len(d.queue) > 0 {
		d.BusyCycles++
	}
	if d.now >= d.nextDone {
		d.complete()
	}
	if d.issueStale {
		return
	}

	// FR-FCFS issue: scan arrival order; first row-hit to a free bank wins,
	// else the oldest request to a free bank.
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
	if pick == nil {
		d.issueStale = true
		return
	}
	d.issue(pick)
}

// complete retires the in-service requests whose data transfer finished, in
// queue order, and moves nextDone to the earliest one still in service.
func (d *DRAM) complete() {
	d.nextDone = math.MaxInt64
	for i := 0; i < len(d.queue); {
		r := d.queue[i]
		if r.inService && r.completeAt <= d.now {
			d.banks[r.bank].busy = false
			d.done = append(d.done, r)
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			d.issueStale = false
			continue
		}
		if r.inService {
			d.nextDone = min(d.nextDone, r.completeAt)
		}
		i++
	}
}

// issue computes the full service schedule of one request analytically and
// reserves the bank and data bus.
func (d *DRAM) issue(r *dramReq) {
	b := &d.banks[r.bank]
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
// The drained request records return to the Enqueue freelist.
func (d *DRAM) TakeCompleted(out []*Transaction, wantWriteback func(*Transaction)) []*Transaction {
	for i, r := range d.done {
		if r.writeback {
			if wantWriteback != nil {
				wantWriteback(r.txn)
			}
		} else {
			out = append(out, r.txn)
		}
		r.txn = nil
		d.free = append(d.free, r)
		d.done[i] = nil
	}
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
