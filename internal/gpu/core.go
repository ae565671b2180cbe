// Package gpu implements the compute-node side of the simulated GPGPU: a
// SIMT core with a fixed pool of warps, greedy-then-oldest warp scheduling
// (Table I), an L1 data cache with MSHR-based miss merging, and a
// store-queue for write-through stores. Cores hide memory latency by warp
// swapping, which is exactly the property that makes IPC sensitive to NoC
// reply latency and throughput (paper §1).
package gpu

import (
	"fmt"

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
	// The returned slice may reuse scratch.
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
}

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
	l1         *cache.Cache
	mshr       *cache.MSHR
	lsuQ       []lsuOp

	workload Workload
	// send hands a transaction to the request-network NI; false means the
	// NI is full and the LSU must retry.
	send func(txn *mem.Transaction) bool

	outstandingStores int
	addrScratch       []uint64
	nextTxnID         uint64
	// txnFree recycles Transaction structs: every transaction this core
	// creates comes back exactly once through ReceiveReply (writes ack,
	// reads fill), which returns it here — the request/reply hot path then
	// allocates nothing.
	txnFree []*mem.Transaction

	// scan forces the full per-cycle scheduler scan even on cycles Tick's
	// fast path would short-cut to its exact observable effect — one core
	// cycle, one issue stall (UseScanReference).
	scan bool

	// Stats (reset at end of warmup).
	Instructions  uint64
	MemInstrs     uint64
	LoadTxns      uint64
	StoreTxns     uint64
	IssueStalls   uint64 // cycles with no ready warp
	LSUSendStalls uint64 // LSU blocked by NI rejection
	MSHRStalls    uint64
	StoreQStalls  uint64
	CoreCycles    uint64
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
	return &Core{
		Index:      index,
		Node:       node,
		cfg:        cfg,
		warps:      make([]warp, cfg.WarpsPerCore),
		readyWarps: cfg.WarpsPerCore,
		l1:         cache.New(cfg.L1),
		mshr:       cache.NewMSHR(cfg.MSHREntries, cfg.MSHRWaiters),
		workload:   w,
		send:       send,
	}, nil
}

// L1 exposes the L1 cache for stats.
func (c *Core) L1() *cache.Cache { return c.l1 }

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

// UseScanReference disables Tick's idle fast path, so every cycle runs the
// full scheduler scan: the reference the fast path is proven bit-identical
// against (internal/simeq). Tests only; core.Simulator.UseScanReference
// forwards here.
func (c *Core) UseScanReference() { c.scan = true }

// Tick advances the core by one core-clock cycle.
func (c *Core) Tick() {
	c.CoreCycles++
	if !c.scan && c.readyWarps == 0 && len(c.lsuQ) == 0 {
		// Fast path: with no ready warp, every tryIssue returns false before
		// any side effect (in particular, before any workload RNG draw), and
		// with an empty LSU queue stepLSU is a no-op. The scan's only
		// observable effect is the issue stall recorded here.
		c.IssueStalls++
		return
	}
	c.stepLSU()
	c.issue()
}

// issue performs greedy-then-oldest scheduling: keep issuing from the
// current warp until it cannot issue, then fall back to the oldest (lowest
// index) ready warp.
func (c *Core) issue() {
	if c.tryIssue(c.current) {
		return
	}
	for w := range c.warps {
		if w == c.current || c.warps[w].state != warpReady {
			continue
		}
		if c.tryIssue(w) {
			c.current = w
			return
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
		wp.computeLeft = c.workload.NextCompute(c.Index, w)
		wp.initialised = true
	}
	if wp.computeLeft > 0 {
		wp.computeLeft--
		c.Instructions++
		return true
	}
	// Memory instruction: all of its transactions must fit in the LSU
	// queue; stores additionally need store-queue space.
	write, addrs := c.workload.NextMem(c.Index, w, c.addrScratch[:0])
	c.addrScratch = addrs
	if len(addrs) == 0 {
		// Degenerate workload: treat as compute.
		c.Instructions++
		wp.computeLeft = c.workload.NextCompute(c.Index, w)
		return true
	}
	if len(c.lsuQ)+len(addrs) > c.cfg.LSUQueueCap {
		return false
	}
	if write && c.outstandingStores+len(addrs) > c.cfg.StoreQueueCap {
		c.StoreQStalls++
		return false
	}
	for _, a := range addrs {
		c.lsuQ = append(c.lsuQ, lsuOp{addr: a, write: write, warp: w})
	}
	c.Instructions++
	c.MemInstrs++
	if write {
		c.outstandingStores += len(addrs)
		c.StoreTxns += uint64(len(addrs))
	} else {
		wp.pendingLoads += len(addrs)
		wp.state = warpWaiting
		c.readyWarps--
		c.LoadTxns += uint64(len(addrs))
	}
	wp.computeLeft = c.workload.NextCompute(c.Index, w)
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
	line := op.addr
	if c.mshr.Pending(line) {
		switch c.mshr.Lookup(line, op.warp) {
		case cache.Merged:
			return true
		default:
			c.MSHRStalls++
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
	c.l1.Access(txn.Addr, false)
	ws := c.mshr.Fill(txn.Addr)
	for _, w := range ws {
		c.loadDone(w)
	}
	c.mshr.Recycle(ws)
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
	}
}

// OutstandingWork reports in-flight memory activity (drain detection).
func (c *Core) OutstandingWork() int {
	return len(c.lsuQ) + c.mshr.Occupied() + c.outstandingStores
}
