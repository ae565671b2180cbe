package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// scheduled builds a test network carrying the fault schedule cfg on stream.
func scheduled(t *testing.T, cfg FaultConfig, stream uint64, mutate func(*Config)) *Network {
	t.Helper()
	n := newTestNet(t, mutate)
	if err := n.ScheduleFaults(cfg, stream); err != nil {
		t.Fatalf("ScheduleFaults: %v", err)
	}
	return n
}

// TestFaultScheduleGolden pins the fault draw stream itself. An idle Table I
// 6×6 mesh with the recovery layer on is stepped for 20 000 cycles under
// three configurations — the chaos soak's, Fig fault's 10 % corruption
// point and the shape arisim's -corrupt-prob/-link-death flags build — on
// the request (tag 1) and reply (tag 2) streams. The schedule does not
// depend on traffic, so the event count and a SHA-256 of every event's
// (cycle, kind, node, port, duration) fix which fault lands where and when;
// a refactor of the schedule must leave both unchanged. Seed 1 is what a
// fault config with Seed 0 inherits from core.DefaultConfig.
func TestFaultScheduleGolden(t *testing.T) {
	configs := map[string]FaultConfig{
		"chaos":     ChaosFaults(7),
		"faultfig":  {Enabled: true, Seed: 1, CorruptProb: 0.1},
		"faultflag": {Enabled: true, Seed: 1, CorruptProb: 0.03, LinkDeathProb: 0.002},
	}
	want := map[string]struct {
		events int
		sha    string
	}{
		"chaos/1":     {2439, "c92f38739eb2ec326ffaff82732d73b0d37a1cd30ab7373b9cdbd867d03d8039"},
		"chaos/2":     {2426, "c02fc197c3b87c208a4546583e17f64156ddfbf545dfb4dbd4c427de0887d8ea"},
		"faultfig/1":  {2040, "7b293808e3ccb9a986e41bfa1964c6fa14995eb96bec1ed3b430d6f0c36e0789"},
		"faultfig/2":  {1947, "310eee33c6c156fe152464695ff3a265cc7f86dec9ff5e35c4acc0528c65022f"},
		"faultflag/1": {602, "91fdc33b82af8c8f316a4981871a88e8687ad021e1bb4b89d2df19fa1771f417"},
		"faultflag/2": {630, "a38eab8922082d25dacfef84f2769bcc62c6ebad8e47f6ff2ae20e8042ccd7cd"},
	}
	for name, cfg := range configs {
		for _, tag := range []uint64{1, 2} {
			id := fmt.Sprintf("%s/%d", name, tag)
			n, err := NewNetwork(Config{
				Mesh:           Mesh{Width: 6, Height: 6},
				VCs:            4,
				LinkBits:       128,
				DataBytes:      128,
				Routing:        RouteMinAdaptive,
				EjectRate:      1,
				RetransBufPkts: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.ScheduleFaults(cfg, tag); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 20000; c++ {
				n.Step()
			}
			h := sha256.New()
			events := n.faults.events
			for _, e := range events {
				fmt.Fprintf(h, "%d %d %d %d %d\n", e.Cycle, e.Kind, e.Node, e.Port, e.Duration)
			}
			sum := hex.EncodeToString(h.Sum(nil))
			if w := want[id]; len(events) != w.events || sum != w.sha {
				t.Errorf("%s: %d events, sha256 %s; want %d events, %s", id, len(events), sum, w.events, w.sha)
			}
		}
	}
}

// TestFaultMaxEventsCap pins the bounded event log: past the cap faults are
// still injected (FaultEvents keeps counting) but not logged.
func TestFaultMaxEventsCap(t *testing.T) {
	n := scheduled(t, FaultConfig{
		Enabled:       true,
		Seed:          7,
		LinkStallProb: 1,
		MinDuration:   1,
		MaxDuration:   1,
		MaxConcurrent: 64,
		MaxEvents:     4,
	}, 0, nil)
	for c := 0; c < 10; c++ {
		n.Step()
	}
	if got := len(n.faults.events); got != 4 {
		t.Fatalf("logged %d events, want the cap 4", got)
	}
	if n.FaultEvents() != 10 {
		t.Fatalf("FaultEvents %d, want 10", n.FaultEvents())
	}
}

// TestFaultConfigValidate covers the malformed configurations Validate
// must reject — a probability outside [0,1], an inverted or negative
// duration range — and checks that the zero config is accepted.
func TestFaultConfigValidate(t *testing.T) {
	for i, bad := range []FaultConfig{
		{Enabled: true, LinkStallProb: -0.1},
		{Enabled: true, NIStallProb: 1.5},
		{Enabled: true, MinDuration: 10, MaxDuration: 5},
		{Enabled: true, MinDuration: -1},
	} {
		if _, err := bad.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, bad)
		}
	}
	if _, err := (FaultConfig{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestFaultValidateEdgeCases covers the boundary configurations: a
// degenerate duration range, probabilities exactly 0 and 1, NaN and the
// remaining out-of-range fields, and the defaults Validate fills in.
func TestFaultValidateEdgeCases(t *testing.T) {
	// MinDuration == MaxDuration is a legal (fixed-length) range.
	c, err := FaultConfig{Enabled: true, MinDuration: 5, MaxDuration: 5}.Validate()
	if err != nil {
		t.Fatalf("fixed-duration config rejected: %v", err)
	}
	if c.MinDuration != 5 || c.MaxDuration != 5 {
		t.Fatalf("fixed duration rewritten to [%d,%d]", c.MinDuration, c.MaxDuration)
	}

	// Probabilities exactly 0 and exactly 1 are both inside [0,1].
	if _, err := (FaultConfig{LinkStallProb: 0, CorruptProb: 1, LinkDeathProb: 1}).Validate(); err != nil {
		t.Fatalf("boundary probabilities rejected: %v", err)
	}

	for i, bad := range []FaultConfig{
		{CorruptProb: -0.01},
		{LinkDeathProb: 1.01},
		{Enabled: true, CorruptProb: math.NaN()},
		{MaxDeadLinks: -1},
		{MaxEvents: -1},
	} {
		if _, err := bad.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, bad)
		}
	}

	// Defaults fill in for zero values.
	c, err = FaultConfig{}.Validate()
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if c.MaxDeadLinks != 2 || c.MaxEvents != 65536 {
		t.Fatalf("defaults not filled: MaxDeadLinks %d, MaxEvents %d", c.MaxDeadLinks, c.MaxEvents)
	}
}

// TestFaultMaxConcurrentKeepsStreamAligned pins the draw-stream
// discipline: when the concurrency cap swallows a fault, the Bernoulli
// draw is still consumed, so the schedule after saturation is identical to
// a replay of the same seed — and fixed-length durations show up verbatim.
func TestFaultMaxConcurrentKeepsStreamAligned(t *testing.T) {
	mk := func() *Network {
		return scheduled(t, FaultConfig{
			Enabled:       true,
			Seed:          21,
			LinkStallProb: 0.9,
			NIStallProb:   0.9,
			MinDuration:   6,
			MaxDuration:   6,
			MaxConcurrent: 1, // saturates immediately
		}, 0, nil)
	}
	a, b := mk(), mk()
	for c := int64(0); c < 200; c++ {
		a.Step()
		b.Step()
		active := 0
		for _, e := range a.faults.expires {
			if e > c {
				active++
			}
		}
		if active > 1 {
			t.Fatalf("cycle %d: %d active faults exceed MaxConcurrent 1", c, active)
		}
	}
	ea, eb := a.faults.events, b.faults.events
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

// TestFaultEventStringAllKinds pins the log rendering of every fault kind,
// including the permanent-fault form.
func TestFaultEventStringAllKinds(t *testing.T) {
	cases := []struct {
		e    faultEvent
		want string
	}{
		{faultEvent{Cycle: 5, Kind: linkStall, Node: 3, Port: 1, Duration: 12}, "cycle 5: link-stall node 3 port 1 for 12 cycles"},
		{faultEvent{Cycle: 6, Kind: portFreeze, Node: 2, Port: 0, Duration: 8}, "cycle 6: port-freeze node 2 port 0 for 8 cycles"},
		{faultEvent{Cycle: 7, Kind: niStall, Node: 9, Port: -1, Duration: 4}, "cycle 7: ni-stall node 9 for 4 cycles"},
		{faultEvent{Cycle: 8, Kind: flitCorrupt, Node: 1, Port: 4, Duration: 16}, "cycle 8: flit-corrupt node 1 port 4 for 16 cycles"},
		{faultEvent{Cycle: 9, Kind: linkDeath, Node: 6, Port: 2, Duration: -1}, "cycle 9: link-death node 6 port 2 permanently"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("faultEvent.String() = %q, want %q", got, c.want)
		}
	}
}

// TestFaultCorruptionRequiresRecovery pins ScheduleFaults' refusal to
// corrupt a network that cannot detect it.
func TestFaultCorruptionRequiresRecovery(t *testing.T) {
	n := newTestNet(t, nil) // RetransBufPkts zero: recovery off
	if err := n.ScheduleFaults(FaultConfig{Enabled: true, CorruptProb: 0.1}, 0); err == nil {
		t.Fatal("ScheduleFaults accepted corruption without the recovery layer")
	}
	nr := newTestNet(t, func(c *Config) { c.RetransBufPkts = 4 })
	if err := nr.ScheduleFaults(FaultConfig{Enabled: true, CorruptProb: 0.1}, 0); err != nil {
		t.Fatalf("ScheduleFaults rejected a recovery-enabled network: %v", err)
	}
	// A disabled config never injects, so it needs no recovery layer.
	if err := n.ScheduleFaults(FaultConfig{Enabled: false, CorruptProb: 0.1}, 0); err != nil {
		t.Fatalf("ScheduleFaults rejected a disabled config: %v", err)
	}
	if n.faults != nil {
		t.Fatal("a disabled config installed a schedule")
	}
}
