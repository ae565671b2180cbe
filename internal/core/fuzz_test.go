package core

import (
	"testing"

	"repro/internal/cache"
)

// FuzzConfigValidate throws arbitrary geometry at Config.Validate: every
// input must yield either nil (for a genuinely usable configuration) or an
// error — never a panic. The L1 fields are included because cache geometry
// validation does modular arithmetic that an int overflow could turn into a
// division by zero.
func FuzzConfigValidate(f *testing.F) {
	f.Add(6, 6, 8, 4, 16<<10, 128, 4, int64(4000), int64(20000))
	f.Add(8, 8, 8, 4, 16<<10, 128, 4, int64(0), int64(1))
	f.Add(0, 0, 0, 0, 0, 0, 0, int64(-1), int64(0))
	f.Add(1<<20, 1<<20, 1, 4, 16<<10, 128, 4, int64(100), int64(100))
	f.Add(6, 6, 8, 4, 1<<62, 1<<31, 1<<31, int64(100), int64(100))
	f.Add(6, 6, 8, 4, 1<<30, 1<<62, 4, int64(100), int64(100))
	// MC counts the placement cannot put on distinct nodes.
	f.Add(6, 6, 24, 4, 16<<10, 128, 4, int64(100), int64(100))
	f.Add(1, 6, 5, 4, 16<<10, 128, 4, int64(100), int64(100))

	f.Fuzz(func(t *testing.T, w, h, mc, vcs, l1Size, l1Line, l1Ways int,
		warmup, measure int64) {
		cfg := DefaultConfig()
		cfg.MeshWidth = w
		cfg.MeshHeight = h
		cfg.NumMC = mc
		cfg.VCs = vcs
		cfg.Core.L1 = cache.Config{SizeBytes: l1Size, LineBytes: l1Line, Ways: l1Ways}
		cfg.WarmupCycles = warmup
		cfg.MeasureCycles = measure
		_ = cfg.Validate() // must not panic on any input
	})
}
