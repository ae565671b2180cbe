package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func testKernel() Kernel {
	return Kernel{
		Name: "test", Sens: Medium, WarpsPerCore: 4,
		ComputePerMem: 10, ReadFrac: 0.8, CoalesceMean: 1.5,
		Locality: 0.3, HotLines: 64, L2Frac: 0.5,
		SharedLines: 1024, StreamLines: 1 << 16,
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 30 {
		t.Fatalf("suite has %d benchmarks, want 30", len(suite))
	}
	counts := map[Sensitivity]int{}
	names := map[string]bool{}
	for _, k := range suite {
		if err := k.Validate(); err != nil {
			t.Fatalf("suite kernel %s invalid: %v", k.Name, err)
		}
		if names[k.Name] {
			t.Fatalf("duplicate benchmark name %q", k.Name)
		}
		names[k.Name] = true
		counts[k.Sens]++
	}
	// Paper §6.2: 9 high, 11 medium, 10 low.
	if counts[High] != 9 || counts[Medium] != 11 || counts[Low] != 10 {
		t.Fatalf("class mix = %d/%d/%d, want 9/11/10", counts[High], counts[Medium], counts[Low])
	}
	// The benchmarks named in Figs 6, 9, 15 must exist.
	for _, n := range []string{"pathfinder", "hotspot", "srad", "bfs", "mummerGPU", "b+tree"} {
		if !names[n] {
			t.Fatalf("figure benchmark %q missing from suite", n)
		}
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("bfs")
	if err != nil || k.Name != "bfs" {
		t.Fatalf("ByName(bfs) = %+v, %v", k, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if len(Names()) != 30 {
		t.Fatal("Names() wrong length")
	}
	if len(ByClass(High)) != 9 {
		t.Fatal("ByClass(High) wrong length")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, err := NewGenerator(testKernel(), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(testKernel(), 2, 7)
	for i := 0; i < 500; i++ {
		c1 := g1.NextCompute(1, 2)
		c2 := g2.NextCompute(1, 2)
		if c1 != c2 {
			t.Fatalf("compute streams diverged at %d", i)
		}
		w1, a1 := g1.NextMem(1, 2, nil)
		w2, a2 := g2.NextMem(1, 2, nil)
		if w1 != w2 || len(a1) != len(a2) || a1[0] != a2[0] {
			t.Fatalf("mem streams diverged at %d", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	g1, _ := NewGenerator(testKernel(), 1, 1)
	g2, _ := NewGenerator(testKernel(), 1, 2)
	same := 0
	for i := 0; i < 100; i++ {
		_, a1 := g1.NextMem(0, 0, nil)
		_, a2 := g2.NextMem(0, 0, nil)
		if a1[0] == a2[0] {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("different seeds produced %d/100 identical addresses", same)
	}
}

func TestReadFraction(t *testing.T) {
	k := testKernel()
	k.ReadFrac = 0.8
	g, _ := NewGenerator(k, 1, 3)
	reads := 0
	const n = 20000
	for i := 0; i < n; i++ {
		w, _ := g.NextMem(0, i%k.WarpsPerCore, nil)
		if !w {
			reads++
		}
	}
	got := float64(reads) / n
	if math.Abs(got-0.8) > 0.02 {
		t.Fatalf("read fraction %v, want ~0.8", got)
	}
}

func TestCoalescingBounds(t *testing.T) {
	k := testKernel()
	k.CoalesceMean = 2.5
	g, _ := NewGenerator(k, 1, 5)
	var total int
	for i := 0; i < 5000; i++ {
		_, addrs := g.NextMem(0, 0, nil)
		if len(addrs) < 1 || len(addrs) > 4 {
			t.Fatalf("coalesce count %d out of [1,4]", len(addrs))
		}
		// Extra transactions touch adjacent lines.
		for j := 1; j < len(addrs); j++ {
			if addrs[j] != addrs[0]+uint64(j)*LineBytes {
				t.Fatalf("divergent txn %d not adjacent: %x vs %x", j, addrs[j], addrs[0])
			}
		}
		total += len(addrs)
	}
	avg := float64(total) / 5000
	if avg < 1.5 || avg > 3.0 {
		t.Fatalf("avg coalesce %v implausible for mean 2.5", avg)
	}
}

func TestAddressesLineAlignedAndInRegionsQuick(t *testing.T) {
	k := testKernel()
	g, _ := NewGenerator(k, 2, 9)
	f := func(core, warp uint8, steps uint8) bool {
		c := int(core) % 2
		w := int(warp) % k.WarpsPerCore
		for i := 0; i <= int(steps%16); i++ {
			_, addrs := g.NextMem(c, w, nil)
			for _, a := range addrs {
				if a%LineBytes != 0 {
					return false
				}
				inHot := a >= hotBase && a < hotBase+uint64(2*k.WarpsPerCore*k.HotLines+8)*LineBytes
				inShared := a >= sharedBase && a < sharedBase+uint64(k.SharedLines+4)*LineBytes
				inStream := a >= streamBase && a < streamBase+(k.StreamLines+4)*LineBytes
				if !inHot && !inShared && !inStream {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityKnob(t *testing.T) {
	// Higher locality => more accesses land in the hot region.
	countHot := func(loc float64) int {
		k := testKernel()
		k.Locality = loc
		g, _ := NewGenerator(k, 1, 11)
		hot := 0
		for i := 0; i < 5000; i++ {
			_, addrs := g.NextMem(0, 0, nil)
			if addrs[0] >= hotBase && addrs[0] < sharedBase {
				hot++
			}
		}
		return hot
	}
	lo, hi := countHot(0.1), countHot(0.9)
	if hi <= lo*3 {
		t.Fatalf("locality knob ineffective: %d vs %d hot accesses", lo, hi)
	}
}

func TestValidateRejectsBadKernels(t *testing.T) {
	cases := []func(*Kernel){
		func(k *Kernel) { k.Name = "" },
		func(k *Kernel) { k.WarpsPerCore = 0 },
		func(k *Kernel) { k.ReadFrac = 1.5 },
		func(k *Kernel) { k.Locality = -0.1 },
		func(k *Kernel) { k.HotLines = 0 },
		func(k *Kernel) { k.StreamLines = 0 },
		// A compute run must fit the uint32 a core keeps it in.
		func(k *Kernel) { k.ComputePerMem = 6e7 + 1 },
	}
	for i, mutate := range cases {
		k := testKernel()
		mutate(&k)
		if err := k.Validate(); err == nil {
			t.Fatalf("case %d: invalid kernel accepted", i)
		}
	}
	if _, err := NewGenerator(testKernel(), 0, 1); err == nil {
		t.Fatal("zero cores accepted")
	}
	k := testKernel()
	k.ComputePerMem = 6e7
	if err := k.Validate(); err != nil {
		t.Fatalf("the largest compute mean rejected: %v", err)
	}
}

func TestComputePerMemMean(t *testing.T) {
	k := testKernel()
	k.ComputePerMem = 20
	g, _ := NewGenerator(k, 1, 13)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(g.NextCompute(0, i%k.WarpsPerCore))
	}
	got := sum / n
	if math.Abs(got-20) > 2 {
		t.Fatalf("mean compute %v, want ~20", got)
	}
}
