package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzKernelValidate exercises Kernel.Validate and, when it accepts, the
// generator built from the kernel: malformed parameter sets (NaN, Inf,
// overflow-sized occupancy) must be rejected with an error, and every
// accepted set must yield a generator whose streams are safe to pull.
func FuzzKernelValidate(f *testing.F) {
	for _, k := range Suite() {
		f.Add(k.WarpsPerCore, k.ComputePerMem, k.ReadFrac, k.CoalesceMean,
			k.Locality, float64(k.HotLines), k.L2Frac, float64(k.SharedLines), k.StreamLines)
	}
	f.Add(48, math.NaN(), 0.9, 1.8, 0.15, 96.0, 0.4, 2048.0, uint64(1<<21))
	f.Add(1<<30, 4.0, 0.9, 1.8, 0.15, 96.0, 0.4, 2048.0, uint64(1<<21))
	f.Add(48, math.Inf(1), 0.9, math.Inf(-1), 0.15, 96.0, 0.4, 2048.0, uint64(1))

	f.Fuzz(func(t *testing.T, warps int, cpm, rf, coal, loc float64,
		hot float64, l2f float64, shared float64, stream uint64) {
		k := Kernel{
			Name: "fuzz", WarpsPerCore: warps,
			ComputePerMem: cpm, ReadFrac: rf, CoalesceMean: coal,
			Locality: loc, HotLines: int(hot), L2Frac: l2f,
			SharedLines: int(shared), StreamLines: stream,
		}
		if err := k.Validate(); err != nil {
			return // rejection is the correct outcome for malformed input
		}
		gen, err := NewGenerator(k, 1, 7)
		if err != nil {
			t.Fatalf("validated kernel rejected by generator: %v", err)
		}
		for w := 0; w < k.WarpsPerCore && w < 8; w++ {
			if n := gen.NextCompute(0, w); n < 0 {
				t.Fatalf("negative compute segment %d", n)
			}
			_, addrs := gen.NextMem(0, w, nil)
			if len(addrs) == 0 || len(addrs) > 4 {
				t.Fatalf("memory instruction with %d transactions", len(addrs))
			}
		}
	})
}

// FuzzReplayer exercises the binary trace parser with arbitrary input: it
// must either reject the stream with an error or produce a Replayer whose
// streams are safe to pull — never panic or hang.
func FuzzReplayer(f *testing.F) {
	// Seed with a small valid trace.
	k := testKernel()
	gen, _ := NewGenerator(k, 1, 3)
	var buf bytes.Buffer
	rec, _ := NewRecorder(gen, &buf, 1, k.WarpsPerCore)
	for w := 0; w < k.WarpsPerCore; w++ {
		rec.NextCompute(0, w)
		rec.NextMem(0, w, nil)
	}
	if err := rec.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ARIT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := NewReplayer(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine
		}
		cores, warps := rep.Shape()
		if cores <= 0 || warps <= 0 {
			t.Fatalf("accepted trace with shape %dx%d", cores, warps)
		}
		// Pulling from any warp must be safe and bounded.
		for i := 0; i < 16; i++ {
			c, w := i%cores, i%warps
			if n := rep.NextCompute(c, w); n < 0 {
				t.Fatalf("negative compute segment %d", n)
			}
			_, addrs := rep.NextMem(c, w, nil)
			if len(addrs) > 8 {
				t.Fatalf("replayed %d addresses, above the format cap", len(addrs))
			}
		}
	})
}
