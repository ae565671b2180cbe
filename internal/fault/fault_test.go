package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/noc"
)

// testNet builds a small network for injector unit tests.
func testNet(t *testing.T, mutate func(*noc.Config)) *noc.Network {
	t.Helper()
	cfg := noc.Config{
		Mesh:        noc.Mesh{Width: 4, Height: 4},
		VCs:         4,
		LinkBits:    128,
		DataBytes:   128,
		Routing:     noc.RouteXY,
		NonAtomicVC: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatalf("noc.Validate: %v", err)
	}
	n, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

// TestEventsReturnsCopy pins that Events() hands out a private copy: a
// caller mutating the returned slice, or the injector appending afterwards,
// must never alias the other's view.
func TestEventsReturnsCopy(t *testing.T) {
	n := testNet(t, nil)
	inj, err := NewInjector(Config{
		Enabled:       true,
		Seed:          3,
		LinkStallProb: 1,
		MinDuration:   1,
		MaxDuration:   1,
		MaxConcurrent: 64,
	}, n, 0)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	for c := int64(0); c < 4; c++ {
		inj.Step(c)
	}
	got := inj.Events()
	if len(got) != 4 {
		t.Fatalf("got %d events, want 4", len(got))
	}
	want := make([]Event, len(got))
	copy(want, got)

	// Mutating the returned slice must not corrupt the injector's log.
	got[0] = Event{Cycle: -99, Kind: NIStall, Node: -1, Port: -1, Duration: -7}
	if again := inj.Events(); !reflect.DeepEqual(again, want) {
		t.Fatalf("caller mutation leaked into the injector log:\n%+v\nwant\n%+v", again, want)
	}

	// Appending after the snapshot must not grow the snapshot.
	snap := inj.Events()
	inj.Step(10)
	if len(snap) != 4 {
		t.Fatalf("snapshot grew to %d events after later injection", len(snap))
	}
	if len(inj.Events()) != 5 {
		t.Fatalf("injector log has %d events, want 5", len(inj.Events()))
	}
}

// TestMaxEventsCap pins the bounded event log: past the cap faults are
// still injected (TotalEvents keeps counting) but log entries are dropped
// and counted.
func TestMaxEventsCap(t *testing.T) {
	n := testNet(t, nil)
	inj, err := NewInjector(Config{
		Enabled:       true,
		Seed:          7,
		LinkStallProb: 1,
		MinDuration:   1,
		MaxDuration:   1,
		MaxConcurrent: 64,
		MaxEvents:     4,
	}, n, 0)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	for c := int64(0); c < 10; c++ {
		inj.Step(c)
	}
	if got := len(inj.Events()); got != 4 {
		t.Fatalf("retained %d events, want the cap 4", got)
	}
	if inj.TotalEvents() != 10 {
		t.Fatalf("TotalEvents %d, want 10", inj.TotalEvents())
	}
	if inj.DroppedEvents() != 6 {
		t.Fatalf("DroppedEvents %d, want 6", inj.DroppedEvents())
	}
}

// TestValidateEdgeCases covers the boundary configurations Validate must
// accept: a degenerate duration range, probabilities exactly 0 and 1, and
// the new caps' rejection of negatives.
func TestValidateEdgeCases(t *testing.T) {
	// MinDuration == MaxDuration is a legal (fixed-length) range.
	c, err := Config{Enabled: true, MinDuration: 5, MaxDuration: 5}.Validate()
	if err != nil {
		t.Fatalf("fixed-duration config rejected: %v", err)
	}
	if c.MinDuration != 5 || c.MaxDuration != 5 {
		t.Fatalf("fixed duration rewritten to [%d,%d]", c.MinDuration, c.MaxDuration)
	}

	// Probabilities exactly 0 and exactly 1 are both inside [0,1].
	if _, err := (Config{LinkStallProb: 0, CorruptProb: 1, LinkDeathProb: 1}).Validate(); err != nil {
		t.Fatalf("boundary probabilities rejected: %v", err)
	}

	for i, bad := range []Config{
		{CorruptProb: -0.01},
		{LinkDeathProb: 1.01},
		{MaxDeadLinks: -1},
		{MaxEvents: -1},
	} {
		if _, err := bad.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, bad)
		}
	}

	// Defaults fill in for zero values.
	c, err = Config{}.Validate()
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if c.MaxDeadLinks != 2 || c.MaxEvents != 65536 {
		t.Fatalf("defaults not filled: MaxDeadLinks %d, MaxEvents %d", c.MaxDeadLinks, c.MaxEvents)
	}
}

// TestMaxConcurrentSaturationKeepsStreamAligned pins the draw-stream
// discipline: when the concurrency cap swallows a fault, the Bernoulli
// draw is still consumed, so the schedule after saturation is identical to
// a replay of the same seed — and fixed-length durations show up verbatim.
func TestMaxConcurrentSaturationKeepsStreamAligned(t *testing.T) {
	mk := func() *Injector {
		inj, err := NewInjector(Config{
			Enabled:       true,
			Seed:          21,
			LinkStallProb: 0.9,
			NIStallProb:   0.9,
			MinDuration:   6,
			MaxDuration:   6,
			MaxConcurrent: 1, // saturates immediately
		}, testNet(t, nil), 0)
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		return inj
	}
	a, b := mk(), mk()
	for c := int64(0); c < 200; c++ {
		a.Step(c)
		b.Step(c)
		if got := a.Active(c); got > 1 {
			t.Fatalf("cycle %d: %d active faults exceed MaxConcurrent 1", c, got)
		}
	}
	ea, eb := a.Events(), b.Events()
	if !reflect.DeepEqual(ea, eb) {
		t.Fatal("saturated schedules diverged between identical replays")
	}
	if len(ea) == 0 {
		t.Fatal("saturation suppressed every fault; the test exercises nothing")
	}
	// 200 cycles of p=0.9 draws inject far more than the ~34 a 6-cycle
	// serial occupancy allows only if draws were mis-consumed.
	if len(ea) > 40 {
		t.Fatalf("%d events under MaxConcurrent 1 with 6-cycle faults", len(ea))
	}
	for _, e := range ea {
		if e.Duration != 6 {
			t.Fatalf("fixed-range duration drew %d, want 6", e.Duration)
		}
	}
}

// TestEventStringAllKinds pins the log rendering of every fault kind,
// including the permanent-fault form.
func TestEventStringAllKinds(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Cycle: 5, Kind: LinkStall, Node: 3, Port: 1, Duration: 12}, "cycle 5: link-stall node 3 port 1 for 12 cycles"},
		{Event{Cycle: 6, Kind: PortFreeze, Node: 2, Port: 0, Duration: 8}, "cycle 6: port-freeze node 2 port 0 for 8 cycles"},
		{Event{Cycle: 7, Kind: NIStall, Node: 9, Port: -1, Duration: 4}, "cycle 7: ni-stall node 9 for 4 cycles"},
		{Event{Cycle: 8, Kind: FlitCorrupt, Node: 1, Port: 4, Duration: 16}, "cycle 8: flit-corrupt node 1 port 4 for 16 cycles"},
		{Event{Cycle: 9, Kind: LinkDeath, Node: 6, Port: 2, Duration: -1}, "cycle 9: link-death node 6 port 2 permanently"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("Event.String() = %q, want %q", got, c.want)
		}
	}
	if got := Kind(250).String(); !strings.Contains(got, "250") {
		t.Errorf("unknown kind rendered as %q", got)
	}
}

// TestCorruptionRequiresRecovery pins NewInjector's refusal to corrupt a
// network that cannot detect it.
func TestCorruptionRequiresRecovery(t *testing.T) {
	n := testNet(t, nil) // RetransBufPkts zero: recovery off
	if _, err := NewInjector(Config{Enabled: true, CorruptProb: 0.1}, n, 0); err == nil {
		t.Fatal("NewInjector accepted corruption without the recovery layer")
	}
	nr := testNet(t, func(c *noc.Config) { c.RetransBufPkts = 4 })
	if _, err := NewInjector(Config{Enabled: true, CorruptProb: 0.1}, nr, 0); err != nil {
		t.Fatalf("NewInjector rejected a recovery-enabled network: %v", err)
	}
	// A disabled config never injects, so it needs no recovery layer.
	if _, err := NewInjector(Config{Enabled: false, CorruptProb: 0.1}, n, 0); err != nil {
		t.Fatalf("NewInjector rejected a disabled config: %v", err)
	}
}
