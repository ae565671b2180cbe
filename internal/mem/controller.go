package mem

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/noc"
)

// MCConfig configures one memory-controller node (Table I: 128KB L2 per
// MC, FR-FCFS, GDDR5 at 1.75 GHz).
type MCConfig struct {
	L2        cache.Config
	L2Latency int // L2 access latency in NoC cycles
	DRAM      DRAMConfig
	// InQueueCap bounds buffered request packets; when full the node stops
	// ejecting from the request network, creating the backpressure chain of
	// §3 ("request packets start to be queued up backward"). Small values
	// make the parking-lot effect (Fig 3) bite sooner.
	InQueueCap int
	// L2PipeCap bounds in-flight L2 accesses (>= L2Latency keeps the bank
	// fully pipelined at one access per cycle).
	L2PipeCap int
	// ReplyQueueCap bounds ready reply data waiting for the NI; when full,
	// L2 and DRAM completions stall — this is the data-stall condition the
	// paper measures in Fig 12.
	ReplyQueueCap int
}

// DefaultMCConfig returns Table I's memory-controller parameters.
func DefaultMCConfig() MCConfig {
	return MCConfig{
		L2:            cache.Config{SizeBytes: 128 << 10, LineBytes: 128, Ways: 8},
		L2Latency:     20,
		DRAM:          DefaultDRAMConfig(),
		InQueueCap:    8,
		L2PipeCap:     8,
		ReplyQueueCap: 8,
	}
}

// pipeEntry is a transaction in the fixed-latency L2 pipeline.
type pipeEntry struct {
	txn    *Transaction
	doneAt int64
}

// fill is one outstanding L2 miss: the line's DRAM read and the reads merged
// onto it, all answered when the fill installs.
type fill struct {
	addr    uint64
	readers []*Transaction
}

// Controller is one MC node: request ingress, L2 bank, DRAM channel and
// reply egress toward the reply-network NI.
type Controller struct {
	Node int
	cfg  MCConfig

	l2   *cache.Cache
	dram *DRAM

	inQ          []*Transaction
	l2Pipe       []pipeEntry
	pendingReads map[uint64]*fill // line -> its outstanding fill
	// dramDone holds the fills DRAM has completed, awaiting reply slots for
	// their readers; each carries its reader record, so the wait is re-tried
	// without a map lookup.
	dramDone []*fill
	replyQ   []*Transaction
	// completed is TakeCompleted's scratch.
	completed []*Transaction

	fabric    noc.Fabric
	linkBits  int
	dataBytes int

	// Allocation recycling for the steady-state hot path. wbFree holds
	// retired internal writeback transactions (reclaimed by takeWB when DRAM
	// commits them); fillFree holds installed fill records.
	wbFree   []*Transaction
	fillFree []*fill
	takeWB   func(*Transaction)

	// Stats.
	ReadHits     uint64
	ReadMisses   uint64
	WriteHits    uint64
	WriteMisses  uint64
	MergedReads  uint64
	Writebacks   uint64
	RepliesSent  uint64
	StallTime    int64 // total cycles reply data waited ready-to-injected (Fig 12)
	BlockedCycle int64 // cycles the head reply was blocked by the NI
	nextWBID     uint64
}

// Validate checks the L2, the DRAM and the queue and latency bounds.
func (cfg MCConfig) Validate() error {
	if err := cfg.L2.Validate(); err != nil {
		return fmt.Errorf("mem: L2: %w", err)
	}
	if err := cfg.DRAM.Validate(); err != nil {
		return err
	}
	if cfg.InQueueCap <= 0 || cfg.L2PipeCap <= 0 || cfg.ReplyQueueCap <= 0 || cfg.L2Latency < 0 {
		return fmt.Errorf("mem: invalid queue/latency config %+v", cfg)
	}
	return nil
}

// NewController builds an MC node attached to the reply fabric.
func NewController(node int, cfg MCConfig, fabric noc.Fabric, linkBits, dataBytes int) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		Node:         node,
		cfg:          cfg,
		l2:           cache.New(cfg.L2),
		dram:         NewDRAM(cfg.DRAM),
		pendingReads: make(map[uint64]*fill),
		fabric:       fabric,
		linkBits:     linkBits,
		dataBytes:    dataBytes,
	}
	// Built once here so passing it to TakeCompleted every cycle does not
	// allocate a method-value closure.
	c.takeWB = func(txn *Transaction) { c.wbFree = append(c.wbFree, txn) }
	return c, nil
}

// L2 exposes the L2 bank for stats.
func (c *Controller) L2() *cache.Cache { return c.l2 }

// DRAM exposes the DRAM channel for stats.
func (c *Controller) DRAM() *DRAM { return c.dram }

// CanReceive reports whether the request ingress has space (the request
// network's ejection gate at this node).
func (c *Controller) CanReceive() bool { return len(c.inQ) < c.cfg.InQueueCap }

// Receive buffers a request packet delivered by the request network. The
// transaction is extracted immediately; the packet shell is not retained,
// so the caller may recycle it as soon as Receive returns.
func (c *Controller) Receive(pkt *noc.Packet) {
	txn, ok := pkt.Payload.(*Transaction)
	if !ok {
		panic("mem: request packet without Transaction payload")
	}
	c.inQ = append(c.inQ, txn)
}

// Pending reports in-flight work (for drain detection).
func (c *Controller) Pending() int {
	return len(c.inQ) + len(c.l2Pipe) + len(c.dramDone) + len(c.replyQ) +
		c.dram.Pending() + len(c.pendingReads)
}

// Quiescent reports whether a Tick would be a pure clock advance: no
// buffered requests, no L2 or DRAM activity, no replies waiting. The
// system loop may then call SkipIdle instead of Tick with no change to
// any simulated state.
func (c *Controller) Quiescent() bool {
	return len(c.inQ) == 0 && len(c.l2Pipe) == 0 && len(c.dramDone) == 0 &&
		len(c.replyQ) == 0 && len(c.pendingReads) == 0 && c.dram.Quiescent()
}

// SkipIdle stands in for Tick on a quiescent controller: the only state a
// quiescent Tick changes is the DRAM clock, which must keep advancing so
// later arrival stamps and timing references stay aligned.
func (c *Controller) SkipIdle(memTicks int) {
	c.dram.AdvanceIdle(memTicks)
}

// Tick advances the controller by one NoC cycle; memTicks is how many
// memory-clock cycles elapse within it (from the 1.75 GHz clock domain).
//
// An inert controller is not quiescent but cannot act this cycle: nothing
// waits in the ingress, for a reply slot or in the reply queue, the L2 head
// is not done, and the DRAM neither completes nor issues within memTicks.
// Each stage would then find nothing to do, so only the DRAM clock moves.
func (c *Controller) Tick(now int64, memTicks int) {
	if len(c.inQ) == 0 && len(c.dramDone) == 0 && len(c.replyQ) == 0 &&
		(len(c.l2Pipe) == 0 || c.l2Pipe[0].doneAt > now) && c.dram.inert(memTicks) {
		c.dram.AdvanceIdle(memTicks)
		return
	}
	for i := 0; i < memTicks; i++ {
		c.dram.Tick()
	}
	c.collectDRAM(now)
	c.drainL2Pipe(now)
	c.processRequest(now)
	c.injectReply(now)
}

// collectDRAM pulls completed DRAM transactions: read fills install into L2
// (spilling dirty victims back to DRAM) and fan replies out to every merged
// reader; write completions were acknowledged at L2 already.
//
// Replying needs a reply-queue slot for every reader, and every fill has at
// least one. So while the reply queue is full the held fills stay parked as
// they are, and only the new completions are sorted.
func (c *Controller) collectDRAM(now int64) {
	c.completed = c.dram.TakeCompleted(c.completed[:0], c.takeWB)
	for _, txn := range c.completed {
		if !txn.IsWrite { // a write commit's reply was sent at L2 time
			c.dramDone = append(c.dramDone, c.pendingReads[txn.Addr])
		}
	}
	if len(c.replyQ) >= c.cfg.ReplyQueueCap {
		return
	}
	kept := c.dramDone[:0]
	for _, f := range c.dramDone {
		// Installing may evict a dirty line: that needs a DRAM queue slot.
		if len(c.replyQ)+len(f.readers) > c.cfg.ReplyQueueCap || !c.dram.CanAccept() {
			kept = append(kept, f)
			continue
		}
		c.install(f, now)
	}
	c.dramDone = kept
}

// install puts fill f's line into L2 and queues a reply for each reader.
func (c *Controller) install(f *fill, now int64) {
	res := c.l2.Access(f.addr, false)
	if res.Writeback {
		c.writebackToDRAM(res.WritebackAddr)
	}
	delete(c.pendingReads, f.addr)
	for _, w := range f.readers {
		w.ReadyAt = now
		c.replyQ = append(c.replyQ, w)
	}
	f.readers = f.readers[:0]
	c.fillFree = append(c.fillFree, f)
}

// drainL2Pipe moves finished L2 accesses into the reply queue.
func (c *Controller) drainL2Pipe(now int64) {
	for len(c.l2Pipe) > 0 && c.l2Pipe[0].doneAt <= now {
		if len(c.replyQ) >= c.cfg.ReplyQueueCap {
			return // reply path blocked: data stalls in the MC
		}
		e := c.l2Pipe[0]
		copy(c.l2Pipe, c.l2Pipe[1:])
		c.l2Pipe = c.l2Pipe[:len(c.l2Pipe)-1]
		e.txn.ReadyAt = now
		c.replyQ = append(c.replyQ, e.txn)
	}
}

// processRequest pops at most one request packet per cycle through the L2.
func (c *Controller) processRequest(now int64) {
	if len(c.inQ) == 0 {
		return
	}
	txn := c.inQ[0]
	if txn.IsWrite {
		if !c.processWrite(txn, now) {
			return
		}
	} else {
		if !c.processRead(txn, now) {
			return
		}
	}
	copy(c.inQ, c.inQ[1:])
	c.inQ = c.inQ[:len(c.inQ)-1]
}

// processRead handles a read request; returns false to retry next cycle.
func (c *Controller) processRead(txn *Transaction, now int64) bool {
	if f, pending := c.pendingReads[txn.Addr]; pending {
		// Bound merging so a fill's reply fan-out always fits the reply
		// queue (otherwise the release condition in collectDRAM could
		// never be met).
		if len(f.readers) >= c.cfg.ReplyQueueCap {
			return false
		}
		f.readers = append(f.readers, txn)
		c.MergedReads++
		return true
	}
	if c.l2.Probe(txn.Addr) {
		if len(c.l2Pipe) >= c.cfg.L2PipeCap {
			return false
		}
		c.l2.Access(txn.Addr, false)
		c.ReadHits++
		c.l2Pipe = append(c.l2Pipe, pipeEntry{txn: txn, doneAt: now + int64(c.cfg.L2Latency)})
		return true
	}
	if !c.dram.CanAccept() {
		return false
	}
	c.ReadMisses++
	var f *fill
	if n := len(c.fillFree); n > 0 {
		f = c.fillFree[n-1]
		c.fillFree = c.fillFree[:n-1]
	} else {
		f = &fill{readers: make([]*Transaction, 0, 2)}
	}
	f.addr = txn.Addr
	f.readers = append(f.readers, txn)
	c.pendingReads[txn.Addr] = f
	c.dram.Enqueue(txn, false)
	return true
}

// processWrite handles a write request: write-allocate into L2 (GPU stores
// are full coalesced lines), spilling dirty victims to DRAM; the write
// reply is generated after the L2 latency. Returns false to retry.
func (c *Controller) processWrite(txn *Transaction, now int64) bool {
	if len(c.l2Pipe) >= c.cfg.L2PipeCap {
		return false
	}
	hit := c.l2.Probe(txn.Addr)
	if !hit && !c.dram.CanAccept() {
		return false // may need a writeback slot
	}
	res := c.l2.Access(txn.Addr, true)
	if res.Writeback {
		c.writebackToDRAM(res.WritebackAddr)
	}
	if hit {
		c.WriteHits++
	} else {
		c.WriteMisses++
	}
	c.l2Pipe = append(c.l2Pipe, pipeEntry{txn: txn, doneAt: now + int64(c.cfg.L2Latency)})
	return true
}

// writebackToDRAM enqueues an internal dirty-eviction write, recycling a
// retired writeback transaction when one is available.
func (c *Controller) writebackToDRAM(addr uint64) {
	c.Writebacks++
	c.nextWBID++
	var wb *Transaction
	if n := len(c.wbFree); n > 0 {
		wb = c.wbFree[n-1]
		c.wbFree = c.wbFree[:n-1]
	} else {
		wb = new(Transaction)
	}
	*wb = Transaction{ID: 1<<63 | c.nextWBID, IsWrite: true, Addr: addr, SrcNode: -1}
	c.dram.Enqueue(wb, true)
}

// injectReply offers the head reply packet to the reply-network NI; a
// rejection is the MC data stall of Fig 12.
func (c *Controller) injectReply(now int64) {
	if len(c.replyQ) == 0 {
		return
	}
	txn := c.replyQ[0]
	typ := noc.ReadReply
	if txn.IsWrite {
		typ = noc.WriteReply
	}
	pkt := c.fabric.GetPacket()
	pkt.Type = typ
	pkt.Dst = txn.SrcNode
	pkt.Size = noc.PacketSize(typ, c.linkBits, c.dataBytes)
	pkt.Payload = txn
	if !c.fabric.Inject(c.Node, pkt) {
		c.fabric.PutPacket(pkt)
		c.BlockedCycle++
		return
	}
	c.StallTime += now - txn.ReadyAt
	c.RepliesSent++
	copy(c.replyQ, c.replyQ[1:])
	c.replyQ = c.replyQ[:len(c.replyQ)-1]
}
