package trace

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// skipMemDiverges drives two generators of kernel k, built from one seed,
// with one random script of NextCompute and memory steps; b answers a random
// subset of the memory steps with SkipMem. It reports the first value the
// two return differently, or a warp whose final (rng state, cursor) differs:
// SkipMem must consume exactly the draws of the NextMem it stands for.
func skipMemDiverges(k Kernel, seed, script uint64, steps int) error {
	const cores = 2
	a, err := NewGenerator(k, cores, seed)
	if err != nil {
		return err
	}
	b, _ := NewGenerator(k, cores, seed)
	r := rng.New(script)
	for i := 0; i < steps; i++ {
		c, w := r.Intn(cores), r.Intn(k.WarpsPerCore)
		switch r.Intn(3) {
		case 0:
			if x, y := a.NextCompute(c, w), b.NextCompute(c, w); x != y {
				return fmt.Errorf("step %d (%d,%d): NextCompute %d vs %d", i, c, w, x, y)
			}
		case 1:
			a.NextMem(c, w, nil)
			if !b.SkipMem(c, w) {
				return fmt.Errorf("step %d (%d,%d): SkipMem reported an instruction without transactions", i, c, w)
			}
		default:
			wa, aa := a.NextMem(c, w, nil)
			wb, ab := b.NextMem(c, w, nil)
			if wa != wb || !slices.Equal(aa, ab) {
				return fmt.Errorf("step %d (%d,%d): NextMem %v %x vs %v %x", i, c, w, wa, aa, wb, ab)
			}
		}
	}
	for i := range a.warps {
		if a.warps[i].rng != b.warps[i].rng || a.warps[i].cursor != b.warps[i].cursor {
			return fmt.Errorf("warp %d ends at (%v, cursor %d) vs (%v, cursor %d)",
				i, a.warps[i].rng, a.warps[i].cursor, b.warps[i].rng, b.warps[i].cursor)
		}
	}
	return nil
}

func TestSkipMemConsumesNextMemDraws(t *testing.T) {
	kernels := Suite()
	// Boundary kernels: every parameter value at which NextMem draws a
	// different number of values, and the smallest regions.
	for _, b := range []struct {
		name string
		edit func(*Kernel)
	}{
		{"allStores", func(k *Kernel) { k.ReadFrac = 0 }},
		{"allLoads", func(k *Kernel) { k.ReadFrac = 1 }},
		{"coalesced", func(k *Kernel) { k.CoalesceMean = 1.0 }},
		{"subCoalesced", func(k *Kernel) { k.CoalesceMean = 0.5 }},
		{"noLocality", func(k *Kernel) { k.Locality = 0 }},
		{"allLocal", func(k *Kernel) { k.Locality = 1 }},
		{"noL2", func(k *Kernel) { k.L2Frac = 0 }},
		{"allL2", func(k *Kernel) { k.L2Frac = 1 }},
		{"oneStream", func(k *Kernel) { k.StreamLines = 1 }},
		{"oneHot", func(k *Kernel) { k.HotLines = 1 }},
	} {
		k := testKernel()
		k.Name = b.name
		b.edit(&k)
		kernels = append(kernels, k)
	}
	for _, k := range kernels {
		for seed := uint64(1); seed <= 3; seed++ {
			if err := skipMemDiverges(k, seed, seed*977, 4000); err != nil {
				t.Errorf("%s seed %d: %v", k.Name, seed, err)
			}
		}
	}
}

// A skipped instruction is still a step of the recorded run: a trace
// recorded with SkipMem is the trace recorded with NextMem-and-drop.
func TestRecorderSkipWritesSameTrace(t *testing.T) {
	k := testKernel()
	record := func(skip bool) []byte {
		gen, err := NewGenerator(k, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rec, err := NewRecorder(gen, &buf, 2, k.WarpsPerCore)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(11)
		for i := 0; i < 2000; i++ {
			c, w := r.Intn(2), r.Intn(k.WarpsPerCore)
			rec.NextCompute(c, w)
			// One to three memory instructions a segment: the core draws a
			// fresh one on every retry, without a NextCompute in between.
			for n := 1 + r.Intn(3); n > 0; n-- {
				if drop := r.Intn(2) == 0; drop && skip {
					if !rec.SkipMem(c, w) {
						t.Fatal("SkipMem reported an instruction without transactions")
					}
				} else {
					rec.NextMem(c, w, nil)
				}
			}
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(record(false), record(true)) {
		t.Fatal("trace recorded with SkipMem differs from the one recorded with NextMem")
	}
}

// A Replayer's SkipMem consumes the pending record and reports whether it
// carried addresses — false exactly on the compute-only tail records.
func TestReplayerSkipMem(t *testing.T) {
	k := testKernel()
	gen, _ := NewGenerator(k, 1, 3)
	var buf bytes.Buffer
	rec, _ := NewRecorder(gen, &buf, 1, k.WarpsPerCore)
	for w := 0; w < k.WarpsPerCore; w++ {
		rec.NextCompute(0, w)
		rec.NextMem(0, w, nil)
		rec.NextCompute(0, w) // left open: becomes a zero-address tail record
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := NewReplayer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewReplayer(bytes.NewReader(buf.Bytes()))
	for i := 0; i < 40; i++ {
		w := i % k.WarpsPerCore
		if x, y := a.NextCompute(0, w), b.NextCompute(0, w); x != y {
			t.Fatalf("step %d: compute %d vs %d", i, x, y)
		}
		_, addrs := a.NextMem(0, w, nil)
		if got := b.SkipMem(0, w); got != (len(addrs) > 0) {
			t.Fatalf("step %d: SkipMem = %v for a record with %d addresses", i, got, len(addrs))
		}
	}
}
