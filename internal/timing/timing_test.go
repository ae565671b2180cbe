package timing

import (
	"testing"
	"testing/quick"
)

func TestUnityRatio(t *testing.T) {
	c := NewClock(1, 1)
	for i := 0; i < 100; i++ {
		if n := c.Tick(); n != 1 {
			t.Fatalf("tick %d returned %d, want 1", i, n)
		}
	}
	if c.Cycles() != 100 {
		t.Fatalf("Cycles = %d, want 100", c.Cycles())
	}
}

func TestCoreClockRatio(t *testing.T) {
	// 1126 MHz core over 1000 MHz NoC: after 1000 master cycles the core
	// must have received exactly 1126 ticks, with no drift over repeats.
	c := NewClock(1126, 1000)
	for rep := 1; rep <= 5; rep++ {
		for i := 0; i < 1000; i++ {
			n := c.Tick()
			if n < 1 || n > 2 {
				t.Fatalf("tick returned %d, want 1 or 2", n)
			}
		}
		if got := c.Cycles(); got != uint64(1126*rep) {
			t.Fatalf("after %d periods: %d cycles, want %d", rep, got, 1126*rep)
		}
	}
}

func TestMemClockRatio(t *testing.T) {
	c := NewClock(1750, 1000)
	var total int
	for i := 0; i < 4000; i++ {
		total += c.Tick()
	}
	if total != 7000 {
		t.Fatalf("1.75x clock gave %d ticks over 4000, want 7000", total)
	}
}

func TestSlowClock(t *testing.T) {
	c := NewClock(1, 3)
	pattern := make([]int, 9)
	for i := range pattern {
		pattern[i] = c.Tick()
	}
	var total int
	for _, n := range pattern {
		total += n
	}
	if total != 3 {
		t.Fatalf("1/3 clock gave %d ticks over 9, want 3", total)
	}
}

func TestNoDriftQuick(t *testing.T) {
	f := func(num, den uint8) bool {
		n, d := uint64(num%100)+1, uint64(den%100)+1
		c := NewClock(n, d)
		var total uint64
		for i := uint64(0); i < d*10; i++ {
			total += uint64(c.Tick())
		}
		return total == n*10 && c.Cycles() == n*10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	c := NewClock(3, 2)
	c.Tick()
	c.Tick()
	c.Reset()
	if c.Cycles() != 0 {
		t.Fatal("Reset did not clear cycles")
	}
	var total int
	for i := 0; i < 2; i++ {
		total += c.Tick()
	}
	if total != 3 {
		t.Fatalf("post-reset period gave %d ticks, want 3", total)
	}
}

func TestInvalidRatioPanics(t *testing.T) {
	for _, pair := range [][2]uint64{{0, 1}, {1, 0}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewClock(%d,%d) did not panic", pair[0], pair[1])
				}
			}()
			NewClock(pair[0], pair[1])
		}()
	}
}
