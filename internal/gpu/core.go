// Package gpu implements the compute-node side of the simulated GPGPU: a
// SIMT core with a fixed pool of warps, greedy-then-oldest warp scheduling
// (Table I), an L1 data cache with MSHR-based miss merging, and a
// store-queue for write-through stores. Cores hide memory latency by warp
// swapping, which is exactly the property that makes IPC sensitive to NoC
// reply latency and throughput (paper §1).
package gpu

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/mem"
)

// Workload is the instruction-stream generator driving a core's warps: the
// synthetic stand-in for the paper's CUDA benchmarks (internal/trace
// implements it).
type Workload interface {
	// NextCompute returns the number of compute instructions warp w of core
	// c executes before its next memory instruction.
	NextCompute(core, warp int) int
	// NextMem returns the next memory instruction of warp w of core c: its
	// kind and the coalesced line addresses it touches (1..N transactions).
	// The returned slice may reuse scratch. The core calls it once per
	// instruction and holds the result until the instruction issues.
	NextMem(core, warp int, scratch []uint64) (write bool, addrs []uint64)
}

// Config describes one SIMT core (Table I: 16KB L1 per core, 8 CTAs/core,
// warp size 32, SIMD width 8, greedy-then-oldest scheduling).
type Config struct {
	WarpsPerCore int
	L1           cache.Config
	MSHREntries  int
	MSHRWaiters  int
	// LSUWidth is the number of memory transactions the load-store unit
	// processes per core cycle.
	LSUWidth int
	// StoreQueueCap bounds outstanding (unacknowledged) stores.
	StoreQueueCap int
	// LSUQueueCap bounds transactions waiting in the LSU.
	LSUQueueCap int
}

// DefaultConfig returns the Table I core parameters.
func DefaultConfig() Config {
	return Config{
		WarpsPerCore:  48, // 8 CTAs x 6 warps
		L1:            cache.Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4},
		MSHREntries:   32,
		MSHRWaiters:   8,
		LSUWidth:      1,
		StoreQueueCap: 16,
		LSUQueueCap:   8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.WarpsPerCore <= 0 || c.MSHREntries <= 0 || c.MSHRWaiters <= 0 ||
		c.LSUWidth <= 0 || c.StoreQueueCap <= 0 || c.LSUQueueCap <= 0 {
		return fmt.Errorf("gpu: non-positive core parameter %+v", c)
	}
	return c.L1.Validate()
}

type warpState uint8

const (
	warpReady   warpState = iota
	warpWaiting           // blocked on outstanding loads
)

type warp struct {
	state        warpState
	computeLeft  int
	pendingLoads int
	initialised  bool
	// heldWrite is the kind of the memory instruction the warp holds; its
	// addresses are Core.held[w].
	heldWrite bool
}

// heldAddrs is each warp's share of the held-instruction slab: the widest
// instruction trace.Generator draws. A wider one (a replayed trace's) moves
// its warp's slot to the heap, once.
const heldAddrs = 4

// mshrStall is the memoised reason the LSU head load last stalled on the
// MSHR file; see Core.lsuStall.
type mshrStall uint8

const (
	noMSHRStall   mshrStall = iota
	mshrMergeFull           // the line's entry has no free waiter slot
	mshrTableFull           // no entry for the line, and none free
)

// lsuOp is one transaction queued at the load-store unit.
type lsuOp struct {
	addr  uint64
	write bool
	warp  int
}

// Core is one compute node.
type Core struct {
	Index int
	Node  int // mesh node id
	cfg   Config

	warps   []warp
	current int // greedy warp
	// readyWarps counts warps in warpReady state: the O(1) activity
	// predicate for the Tick fast path.
	readyWarps int
	// ready is a bit mask over warps, 64 a word, mirroring state ==
	// warpReady: it changes only when a warp starts waiting or wakes.
	ready []uint64
	// held[w] is the memory instruction warp w has drawn and not yet issued:
	// NextMem is called once per instruction, and an instruction that does
	// not fit the LSU queue (or, a store, the store queue) stays here for
	// the warp's next attempt. Empty means nothing is held — an instruction
	// without transactions issues at once. Carved from one slab per core.
	held [][]uint64
	// holding is a bit mask over warps, 64 a word, mirroring len(held[w]) >
	// 0. A holding warp is ready and out of compute, so while the LSU queue
	// is full its attempt fails before any side effect and issue skips it.
	holding []uint64

	l1   *cache.Cache
	mshr *cache.MSHR
	lsuQ []lsuOp
	// lsuStall memoises why the LSU head load stalled on the MSHR file. The
	// outcome depends only on the MSHR file and the L1, and while the head
	// is stalled only a read fill (ReceiveReply) changes either, so until
	// then each tick just counts the stall again.
	lsuStall mshrStall

	workload Workload
	// send hands a transaction to the request-network NI; false means the
	// NI is full and the LSU must retry.
	send func(txn *mem.Transaction) bool

	outstandingStores int
	nextTxnID         uint64
	// txnFree recycles Transaction structs: every transaction this core
	// creates comes back exactly once through ReceiveReply (writes ack,
	// reads fill), which returns it here — the request/reply hot path then
	// allocates nothing.
	txnFree []*mem.Transaction

	// run is the current warp's remaining compute run, moved out of its
	// computeLeft by the burst hand-off at the end of Tick. While it is
	// positive a tick issues one compute instruction and does nothing else;
	// it sits beside the two counters that tick writes.
	run int

	// Stats (reset at end of warmup).
	CoreCycles    uint64
	Instructions  uint64
	MemInstrs     uint64
	LoadTxns      uint64
	StoreTxns     uint64
	IssueStalls   uint64 // cycles with no ready warp
	LSUSendStalls uint64 // LSU blocked by NI rejection
	MSHRStalls    uint64
	StoreQStalls  uint64
}

// NewCore builds a core. send is the request-injection hook installed by
// the system glue.
func NewCore(index, node int, cfg Config, w Workload, send func(txn *mem.Transaction) bool) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w == nil || send == nil {
		return nil, fmt.Errorf("gpu: core needs a workload and a send hook")
	}
	held := make([][]uint64, cfg.WarpsPerCore)
	slab := make([]uint64, cfg.WarpsPerCore*heldAddrs)
	for w := range held {
		held[w] = slab[w*heldAddrs : w*heldAddrs : (w+1)*heldAddrs]
	}
	return &Core{
		Index:      index,
		Node:       node,
		cfg:        cfg,
		warps:      make([]warp, cfg.WarpsPerCore),
		readyWarps: cfg.WarpsPerCore,
		ready:      allReady(cfg.WarpsPerCore),
		held:       held,
		holding:    make([]uint64, (cfg.WarpsPerCore+63)/64),
		l1:         cache.New(cfg.L1),
		mshr:       cache.NewMSHR(cfg.MSHREntries, cfg.MSHRWaiters),
		workload:   w,
		send:       send,
	}, nil
}

// allReady returns the ready mask of n warps, all ready.
func allReady(n int) []uint64 {
	m := make([]uint64, (n+63)/64)
	for w := 0; w < n; w++ {
		setBit(m, w)
	}
	return m
}

// setBit, clearBit and hasBit write and read warp w's bit of a warp mask.
func setBit(m []uint64, w int)      { m[w>>6] |= 1 << (w & 63) }
func clearBit(m []uint64, w int)    { m[w>>6] &^= 1 << (w & 63) }
func hasBit(m []uint64, w int) bool { return m[w>>6]&(1<<(w&63)) != 0 }

// L1 exposes the L1 cache for stats.
func (c *Core) L1() *cache.Cache { return c.l1 }

// MSHR exposes the miss-status holding registers for stats.
func (c *Core) MSHR() *cache.MSHR { return c.mshr }

// ResetStats clears measurement counters (end of warmup).
func (c *Core) ResetStats() {
	c.Instructions = 0
	c.MemInstrs = 0
	c.LoadTxns = 0
	c.StoreTxns = 0
	c.IssueStalls = 0
	c.LSUSendStalls = 0
	c.MSHRStalls = 0
	c.StoreQStalls = 0
	c.CoreCycles = 0
}

// IPC returns measured warp-instructions per core cycle.
func (c *Core) IPC() float64 {
	if c.CoreCycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.CoreCycles)
}

// Tick advances the core by one core-clock cycle.
//
// A compute burst costs three fields a tick. When a tick ends with the LSU
// queue empty and the current warp ready with compute left, that compute
// moves into run, and the ticks that follow only count it down. The full
// tick would do the same: greedy issue tries the current warp first and a
// ready warp with compute left always issues; the LSU queue grows only when
// a memory instruction issues, which needs the compute spent, so stepLSU
// stays a no-op; and replies (ReceiveReply) only make other warps ready.
// The current warp, and with it every workload draw, is therefore the same
// tick for tick.
func (c *Core) Tick() {
	c.CoreCycles++
	if c.run > 0 {
		c.run--
		c.Instructions++
		return
	}
	if c.readyWarps == 0 && len(c.lsuQ) == 0 {
		// Idle: with no ready warp nothing can issue (so no workload draw
		// happens), and with an empty LSU queue stepLSU is a no-op. The
		// cycle's only observable effect is the issue stall recorded here.
		c.IssueStalls++
		return
	}
	c.stepLSU()
	c.issue()
	if wp := &c.warps[c.current]; len(c.lsuQ) == 0 && wp.state == warpReady && wp.computeLeft > 0 {
		c.run, wp.computeLeft = wp.computeLeft, 0
	}
}

// issue performs greedy-then-oldest scheduling: keep issuing from the
// current warp until it cannot issue, then fall back to the oldest (lowest
// index) ready warp. A failed attempt changes no warp's readiness, so each
// word of the ready mask is walked from a copy. While the LSU queue is full
// the warps holding an instruction are left out: their attempts would fail
// at the queue check, before any side effect (the reference in the package
// tests tries them).
func (c *Core) issue() {
	cur := c.current
	lsuFull := len(c.lsuQ) >= c.cfg.LSUQueueCap
	if !(lsuFull && hasBit(c.holding, cur)) && c.tryIssue(cur) {
		return
	}
	for i, word := range c.ready {
		if lsuFull {
			word &^= c.holding[i]
		}
		for ; word != 0; word &= word - 1 {
			if w := i<<6 | bits.TrailingZeros64(word); w != cur && c.tryIssue(w) {
				c.current = w
				return
			}
		}
	}
	c.IssueStalls++
}

// tryIssue attempts to issue one instruction from warp w.
func (c *Core) tryIssue(w int) bool {
	wp := &c.warps[w]
	if wp.state != warpReady {
		return false
	}
	if !wp.initialised {
		wp.initialised = true
		wp.computeLeft = c.workload.NextCompute(c.Index, w)
	}
	if wp.computeLeft > 0 {
		wp.computeLeft--
		c.Instructions++
		return true
	}
	// Memory instruction: drawn once and held until all of its transactions
	// fit in the LSU queue and, for a store, in the store queue. One wider
	// than a queue can never fit, so it issues into that queue once empty.
	addrs := c.held[w]
	if len(addrs) == 0 {
		wp.heldWrite, addrs = c.workload.NextMem(c.Index, w, addrs)
		if len(addrs) == 0 {
			// No transactions (a replayed trace's compute-only tail record):
			// it counts as a compute instruction.
			c.Instructions++
			wp.computeLeft = c.workload.NextCompute(c.Index, w)
			return true
		}
		c.held[w] = addrs
		setBit(c.holding, w)
	}
	n, write := len(addrs), wp.heldWrite
	if len(c.lsuQ) > 0 && len(c.lsuQ)+n > c.cfg.LSUQueueCap {
		return false
	}
	if write && c.outstandingStores > 0 && c.outstandingStores+n > c.cfg.StoreQueueCap {
		c.StoreQStalls++
		return false
	}
	for _, a := range addrs {
		c.lsuQ = append(c.lsuQ, lsuOp{addr: a, write: write, warp: w})
	}
	c.held[w] = addrs[:0]
	clearBit(c.holding, w)
	c.Instructions++
	c.MemInstrs++
	wp.computeLeft = c.workload.NextCompute(c.Index, w)
	if write {
		c.outstandingStores += n
		c.StoreTxns += uint64(n)
	} else {
		wp.pendingLoads += n
		wp.state = warpWaiting
		c.readyWarps--
		clearBit(c.ready, w)
		c.LoadTxns += uint64(n)
	}
	return true
}

// stepLSU processes up to LSUWidth queued transactions in order, stopping
// at the first one that cannot make progress (in-order LSU). Pops copy the
// queue down in place so its backing array is reused forever; re-slicing
// from the front would creep across the array and force reallocations.
func (c *Core) stepLSU() {
	for n := 0; n < c.cfg.LSUWidth && len(c.lsuQ) > 0; n++ {
		op := c.lsuQ[0]
		if op.write {
			if !c.doStore(op) {
				return
			}
		} else {
			if !c.doLoad(op) {
				return
			}
		}
		copy(c.lsuQ, c.lsuQ[1:])
		c.lsuQ = c.lsuQ[:len(c.lsuQ)-1]
	}
}

// doStore sends a write-through store to the owning MC. The L1 is touched
// but the line stays clean (data also travels to the MC), so L1 evictions
// never generate writeback traffic — matching the four-packet-type traffic
// mix of the paper's Fig 5.
func (c *Core) doStore(op lsuOp) bool {
	c.nextTxnID++
	txn := c.newTxn()
	*txn = mem.Transaction{
		ID:      uint64(c.Index)<<40 | c.nextTxnID,
		IsWrite: true,
		Addr:    op.addr,
		Core:    c.Index,
		SrcNode: c.Node,
	}
	if !c.send(txn) {
		c.nextTxnID--
		c.LSUSendStalls++
		c.txnFree = append(c.txnFree, txn)
		return false
	}
	c.l1.AccessNoAllocate(op.addr, false)
	return true
}

// newTxn returns a recycled (or fresh) Transaction struct; the caller
// overwrites every field.
func (c *Core) newTxn() *mem.Transaction {
	if n := len(c.txnFree); n > 0 {
		t := c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
		return t
	}
	return new(mem.Transaction)
}

// doLoad services a load transaction: L1 hit completes immediately, a miss
// merges into the MSHR or allocates an entry and sends a read request.
func (c *Core) doLoad(op lsuOp) bool {
	switch c.lsuStall {
	case mshrMergeFull:
		c.MSHRStalls++
		c.mshr.FullStall++ // what the failed Lookup counts
		return false
	case mshrTableFull:
		c.MSHRStalls++
		return false
	}
	line := op.addr
	if c.mshr.Pending(line) {
		switch c.mshr.Lookup(line, op.warp) {
		case cache.Merged:
			return true
		default:
			c.MSHRStalls++
			c.lsuStall = mshrMergeFull
			return false
		}
	}
	if c.l1.Probe(line) {
		c.l1.Access(line, false)
		c.loadDone(op.warp)
		return true
	}
	if c.mshr.Full() {
		c.MSHRStalls++
		c.lsuStall = mshrTableFull
		return false
	}
	c.nextTxnID++
	txn := c.newTxn()
	*txn = mem.Transaction{
		ID:      uint64(c.Index)<<40 | c.nextTxnID,
		IsWrite: false,
		Addr:    line,
		Core:    c.Index,
		SrcNode: c.Node,
	}
	if !c.send(txn) {
		c.nextTxnID--
		c.LSUSendStalls++
		c.txnFree = append(c.txnFree, txn)
		return false
	}
	c.mshr.Lookup(line, op.warp)
	return true
}

// ReceiveReply handles a reply packet delivered to this core's node. The
// transaction is recycled here: this is the unique end of its lifetime (no
// other component retains it once the reply ejects).
func (c *Core) ReceiveReply(txn *mem.Transaction) {
	if txn.IsWrite {
		if c.outstandingStores > 0 {
			c.outstandingStores--
		}
		c.txnFree = append(c.txnFree, txn)
		return
	}
	// Fill the L1 (loads allocate; fills are clean lines).
	c.lsuStall = noMSHRStall
	c.l1.Access(txn.Addr, false)
	for _, w := range c.mshr.Fill(txn.Addr) {
		c.loadDone(int(w))
	}
	c.txnFree = append(c.txnFree, txn)
}

// loadDone retires one outstanding load of warp w.
func (c *Core) loadDone(w int) {
	wp := &c.warps[w]
	if wp.pendingLoads > 0 {
		wp.pendingLoads--
	}
	if wp.pendingLoads == 0 && wp.state == warpWaiting {
		wp.state = warpReady
		c.readyWarps++
		setBit(c.ready, w)
	}
}
