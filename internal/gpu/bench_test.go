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
	// Every instruction is a load; replies return immediately, so the core
	// exercises the full issue + LSU + MSHR + fill path each iteration.
	var core *Core
	send := func(txn *mem.Transaction) bool {
		core.ReceiveReply(txn)
		return true
	}
	c, err := NewCore(0, 0, smallCoreConfig(), &scriptedWorkload{compute: 0, stride: 128}, send)
	if err != nil {
		b.Fatal(err)
	}
	core = c
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick()
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
