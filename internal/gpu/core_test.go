package gpu

import (
	"testing"

	"repro/internal/mem"
)

// scriptedWorkload issues a fixed compute length and round-robin addresses.
type scriptedWorkload struct {
	compute    int
	writeEvery int // every n-th mem instruction is a store (0 = never)
	stride     uint64
	memCount   int
	cursor     uint64
}

func (s *scriptedWorkload) NextCompute(core, warp int) int { return s.compute }

func (s *scriptedWorkload) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	s.memCount++
	s.cursor += s.stride
	write := s.writeEvery > 0 && s.memCount%s.writeEvery == 0
	return write, append(scratch, s.cursor)
}

// collector records transactions the core tries to send.
type collector struct {
	sent    []*mem.Transaction
	blocked bool
}

func (c *collector) send(txn *mem.Transaction) bool {
	if c.blocked {
		return false
	}
	c.sent = append(c.sent, txn)
	return true
}

func smallCoreConfig() Config {
	cfg := DefaultConfig()
	cfg.WarpsPerCore = 4
	return cfg
}

func newTestCore(t *testing.T, w Workload, send func(*mem.Transaction) bool) *Core {
	t.Helper()
	c, err := NewCore(0, 5, smallCoreConfig(), w, send)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestComputeOnlyIPCIsOne(t *testing.T) {
	// Huge compute segments: the core should issue one instruction per
	// cycle without ever touching memory.
	col := &collector{}
	c := newTestCore(t, &scriptedWorkload{compute: 1 << 30}, col.send)
	for i := 0; i < 1000; i++ {
		c.Tick()
	}
	if c.IPC() != 1.0 {
		t.Fatalf("IPC = %v, want 1.0", c.IPC())
	}
	if len(col.sent) != 0 {
		t.Fatalf("compute-only workload sent %d transactions", len(col.sent))
	}
}

func TestLoadBlocksWarpUntilReply(t *testing.T) {
	col := &collector{}
	// compute=0: every instruction is a load with a fresh address.
	c := newTestCore(t, &scriptedWorkload{compute: 0, stride: 128}, col.send)
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	// All 4 warps should be blocked waiting on loads; issue stalls accrue.
	if c.IssueStalls == 0 {
		t.Fatal("no issue stalls with all warps blocked")
	}
	sentBefore := len(col.sent)
	if sentBefore != 4 {
		t.Fatalf("sent = %d, want 4 (one outstanding load per warp)", sentBefore)
	}
	// Deliver one reply: exactly one warp wakes and issues again.
	c.ReceiveReply(col.sent[0])
	instBefore := c.Instructions
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	if c.Instructions <= instBefore {
		t.Fatal("warp did not resume after load reply")
	}
}

func TestMSHRMergesDuplicateLoads(t *testing.T) {
	col := &collector{}
	// All warps load the same line: one transaction, four waiters.
	w := &fixedAddrWorkload{addr: 0x8000}
	c := newTestCore(t, w, col.send)
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if len(col.sent) != 1 {
		t.Fatalf("sent = %d transactions for one line, want 1 (MSHR merge)", len(col.sent))
	}
	c.ReceiveReply(col.sent[0])
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	// After the fill, subsequent loads of the line hit in L1: no new sends.
	if len(col.sent) != 1 {
		t.Fatalf("post-fill loads sent %d transactions, want L1 hits", len(col.sent)-1)
	}
}

type fixedAddrWorkload struct{ addr uint64 }

func (f *fixedAddrWorkload) NextCompute(core, warp int) int { return 0 }
func (f *fixedAddrWorkload) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	return false, append(scratch, f.addr)
}

func TestStoresDoNotBlockWarp(t *testing.T) {
	col := &collector{}
	// Every mem instruction is a store to a fresh line.
	c := newTestCore(t, &scriptedWorkload{compute: 0, writeEvery: 1, stride: 128}, col.send)
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	// Warps never block on stores, so instructions accumulate every cycle
	// until the store queue fills (16 outstanding).
	if c.Instructions < 16 {
		t.Fatalf("instructions = %d; stores appear to block", c.Instructions)
	}
	if c.StoreQStalls == 0 {
		t.Fatal("store queue never filled; capacity not enforced")
	}
	// Acks free the queue.
	for _, txn := range col.sent {
		c.ReceiveReply(txn)
	}
	before := c.Instructions
	c.Tick()
	if c.Instructions == before {
		t.Fatal("core did not resume after store acks")
	}
}

func TestSendBackpressureRetries(t *testing.T) {
	col := &collector{blocked: true}
	c := newTestCore(t, &scriptedWorkload{compute: 0, stride: 128}, col.send)
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if len(col.sent) != 0 {
		t.Fatal("blocked sender received transactions")
	}
	if c.LSUSendStalls == 0 {
		t.Fatal("no send stalls recorded")
	}
	col.blocked = false
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if len(col.sent) == 0 {
		t.Fatal("LSU did not retry after unblocking")
	}
}

func TestGreedyThenOldestPrefersCurrentWarp(t *testing.T) {
	// With pure compute, the scheduler should stay on warp 0 forever.
	col := &collector{}
	c := newTestCore(t, &scriptedWorkload{compute: 1 << 30}, col.send)
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	if c.current != 0 {
		t.Fatalf("greedy scheduler drifted to warp %d", c.current)
	}
}

func TestResetStats(t *testing.T) {
	col := &collector{}
	c := newTestCore(t, &scriptedWorkload{compute: 4, stride: 128}, col.send)
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	c.ResetStats()
	if c.Instructions != 0 || c.CoreCycles != 0 || c.IPC() != 0 {
		t.Fatal("ResetStats left counters behind")
	}
	c.Tick()
	if c.CoreCycles != 1 {
		t.Fatal("counters dead after reset")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallCoreConfig()
	cfg.WarpsPerCore = 0
	if _, err := NewCore(0, 0, cfg, &scriptedWorkload{}, func(*mem.Transaction) bool { return true }); err == nil {
		t.Fatal("invalid warp count accepted")
	}
	if _, err := NewCore(0, 0, smallCoreConfig(), nil, nil); err == nil {
		t.Fatal("nil workload/send accepted")
	}
}
