package power

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func sampleActivity() core.Activity {
	return core.Activity{
		NoCCycles:      10000,
		Instructions:   500000,
		L1Accesses:     100000,
		L2Accesses:     40000,
		DRAMReads:      20000,
		DRAMWrites:     5000,
		ReqFlitHops:    30000,
		RepFlitHops:    90000,
		BufferedFlits:  120000,
		InjectionFlits: 60000,
	}
}

func TestEstimatePositive(t *testing.T) {
	b := Estimate(sampleActivity(), false, DefaultParams())
	if b.Dynamic <= 0 || b.Static <= 0 || b.Total() != b.Dynamic+b.Static {
		t.Fatalf("bad breakdown %+v", b)
	}
}

func TestARIOverheadSmall(t *testing.T) {
	p := DefaultParams()
	base := Estimate(sampleActivity(), false, p)
	ari := Estimate(sampleActivity(), true, p)
	if ari.Dynamic != base.Dynamic {
		t.Fatal("ARI flag changed dynamic energy for identical activity")
	}
	rel := ari.Static / base.Static
	if rel <= 1 || rel > 1.01 {
		t.Fatalf("ARI static overhead %v, want within (1, 1.01] (<1%% area)", rel)
	}
}

func TestStaticScalesWithCycles(t *testing.T) {
	p := DefaultParams()
	a := sampleActivity()
	b1 := Estimate(a, false, p)
	a.NoCCycles *= 2
	b2 := Estimate(a, false, p)
	if b2.Static != 2*b1.Static {
		t.Fatalf("static energy not linear in cycles: %v vs %v", b1.Static, b2.Static)
	}
	if b2.Dynamic != b1.Dynamic {
		t.Fatal("dynamic energy changed with cycles alone")
	}
}

func TestPerInstruction(t *testing.T) {
	b := Breakdown{Dynamic: 100, Static: 50}
	pi, err := PerInstruction(b, 10)
	if err != nil || pi.Dynamic != 10 || pi.Static != 5 {
		t.Fatalf("per-instruction = %+v, %v", pi, err)
	}
	if _, err := PerInstruction(b, 0); err == nil {
		t.Fatal("zero instructions accepted")
	}
}

// TestFasterSchemeSavesEnergyPerWork reproduces the Fig 14 mechanism: same
// dynamic work done in fewer cycles means less static energy per unit work.
func TestFasterSchemeSavesEnergyPerWork(t *testing.T) {
	p := DefaultParams()
	slow := sampleActivity()
	fast := slow
	// The faster scheme completes 15% more instructions in the same window
	// (fixed-horizon runs), with proportional activity.
	fast.Instructions = uint64(float64(fast.Instructions) * 1.15)
	fast.L1Accesses = uint64(float64(fast.L1Accesses) * 1.15)
	fast.DRAMReads = uint64(float64(fast.DRAMReads) * 1.15)

	slowPI, _ := PerInstruction(Estimate(slow, false, p), slow.Instructions)
	fastPI, _ := PerInstruction(Estimate(fast, true, p), fast.Instructions)
	if fastPI.Total() >= slowPI.Total() {
		t.Fatalf("faster scheme costs more per instruction: %v vs %v", fastPI.Total(), slowPI.Total())
	}
	saving := 1 - fastPI.Total()/slowPI.Total()
	if saving < 0.005 || saving > 0.15 {
		t.Fatalf("saving %.3f outside the plausible Fig 14 band", saving)
	}
}

func TestEstimateMonotonicQuick(t *testing.T) {
	p := DefaultParams()
	f := func(extra uint16) bool {
		a := sampleActivity()
		b1 := Estimate(a, false, p)
		a.DRAMReads += uint64(extra)
		a.RepFlitHops += uint64(extra)
		b2 := Estimate(a, false, p)
		return b2.Dynamic >= b1.Dynamic
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
