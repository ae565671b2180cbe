package gpu

import (
	"testing"

	"repro/internal/mem"
)

func BenchmarkCoreTickCompute(b *testing.B) {
	c, err := NewCore(0, 0, smallCoreConfig(), &scriptedWorkload{compute: 1 << 30},
		func(*mem.Transaction) bool { return true })
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick()
	}
}

func BenchmarkCoreTickMemoryBound(b *testing.B) {
	// Every instruction is a load of a fresh line, and each reply is
	// delivered on the next iteration — after the LSU has registered its
	// MSHR entry — so every instruction takes the full issue + LSU + MSHR +
	// fill path.
	var pending []*mem.Transaction
	send := func(txn *mem.Transaction) bool {
		pending = append(pending, txn)
		return true
	}
	c, err := NewCore(0, 0, smallCoreConfig(), &scriptedWorkload{compute: 0, stride: 128}, send)
	if err != nil {
		b.Fatal(err)
	}
	var due []*mem.Transaction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		due, pending = pending, due[:0]
		for _, txn := range due {
			c.ReceiveReply(txn)
		}
		c.Tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Instructions)/float64(b.N), "instr/op")
	// Stuck warps would leave the loop timing the idle early-out.
	if c.Instructions < uint64(b.N)/4 {
		b.Fatalf("%d instructions in %d ticks: the memory path stopped issuing", c.Instructions, b.N)
	}
}

func BenchmarkCoreTickLSUFull(b *testing.B) {
	// The request NI never accepts: the LSU queue fills with the first
	// loads and stays full, and every other warp sits ready on a memory
	// instruction that cannot fit — the reply-saturated regime's tick.
	c, err := NewCore(0, 0, DefaultConfig(), &scriptedWorkload{compute: 0, stride: 128},
		func(*mem.Transaction) bool { return false })
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick()
	}
}
