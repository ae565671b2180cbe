package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
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

// TestFaultScheduleGolden pins the fault draw stream by what it does. An
// idle Table I 6×6 mesh with the recovery layer on is stepped for 20 000
// cycles under three configurations — the chaos soak's, Fig fault's 10 %
// corruption point and the shape arisim's -corrupt-prob/-link-death flags
// build — on the request (tag 1) and reply (tag 2) streams. Every cycle,
// each fault horizon the schedule writes — every router output's
// stalledUntil and corruptUntil, its dead mark, every input's frozenUntil
// and every NI's stalledUntil — is compared with the cycle before, and the
// SHA-256 of every change (cycle, slot, new value) together with
// FaultEvents fixes which fault lands where and when. The schedule does not
// depend on traffic; a refactor of it must leave both unchanged. Seed 1 is
// what a fault config with Seed 0 inherits from core.DefaultConfig.
func TestFaultScheduleGolden(t *testing.T) {
	configs := map[string]FaultConfig{
		"chaos":     ChaosFaults(7),
		"faultfig":  {Seed: 1, CorruptProb: 0.1},
		"faultflag": {Seed: 1, CorruptProb: 0.03, LinkDeathProb: 0.002},
	}
	want := map[string]struct {
		events int
		sha    string
	}{
		"chaos/1":     {2439, "a51024804f7257b5c25883ebaf8e368ec6a082d35c8681baf8305a6b653ed603"},
		"chaos/2":     {2426, "788b79fce1bccf37bef1d2f632c74db3a070dfbb2d9e8a793a9ffa72ae4681ac"},
		"faultfig/1":  {2040, "51727114d123c12d6c3345946c9e661710976e2bd8f4a6bd418a4b85935c083d"},
		"faultfig/2":  {1947, "1d34e79d2f0ae871b9fd0ce841537225560c918f5551f757cdb02a3beb80bc3f"},
		"faultflag/1": {602, "bca7515dcacee6f7e7d43d9fe1d1bb4a2b10ac2c5bbaaabadd4c42240ed60205"},
		"faultflag/2": {630, "543f893ec1f54161e7c2d47a521763811d2f9049f107bdb7585cbb10f8f37744"},
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
				RetransBufPkts: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.ScheduleFaults(cfg, tag); err != nil {
				t.Fatal(err)
			}
			var horizons horizonLog
			for c := 0; c < 20000; c++ {
				n.Step()
				horizons.observe(n, c)
			}
			sum := horizons.sum()
			if w := want[id]; n.FaultEvents() != w.events || sum != w.sha {
				t.Errorf("%s: %d events, sha256 %s; want %d events, %s", id, n.FaultEvents(), sum, w.events, w.sha)
			}
		}
	}
}

// horizonLog hashes, cycle by cycle, the changes to every fault horizon of
// a network: per router each output's stalledUntil, corruptUntil and dead
// mark (1 or 0) and each input's frozenUntil, then per NI its stalledUntil.
type horizonLog struct {
	h         hash.Hash
	prev, cur []int64
}

// observe records the horizons that changed since the last call as
// (cycle, slot, new value).
func (l *horizonLog) observe(n *Network, cycle int) {
	l.cur = l.cur[:0]
	for i := range n.routers {
		r := &n.routers[i]
		for o := range r.out {
			op := &r.out[o]
			dead := int64(0)
			if op.dead {
				dead = 1
			}
			l.cur = append(l.cur, op.stalledUntil, op.corruptUntil, dead)
		}
		for p := range r.in {
			l.cur = append(l.cur, r.in[p].frozenUntil)
		}
	}
	for i := range n.nis {
		l.cur = append(l.cur, n.nis[i].stalledUntil)
	}
	if l.h == nil {
		l.h, l.prev = sha256.New(), make([]int64, len(l.cur))
	}
	for i, v := range l.cur {
		if v != l.prev[i] {
			fmt.Fprintf(l.h, "%d %d %d\n", cycle, i, v)
		}
	}
	l.prev, l.cur = l.cur, l.prev
}

// sum returns the hex SHA-256 of every change observed.
func (l *horizonLog) sum() string {
	if l.h == nil {
		l.h = sha256.New()
	}
	return hex.EncodeToString(l.h.Sum(nil))
}

// TestFaultConfigValidate covers the malformed configurations Validate
// must reject — a probability outside [0,1], an inverted or negative
// duration range — and checks that the zero config is accepted.
func TestFaultConfigValidate(t *testing.T) {
	for i, bad := range []FaultConfig{
		{LinkStallProb: -0.1},
		{NIStallProb: 1.5},
		{MinDuration: 10, MaxDuration: 5},
		{MinDuration: -1},
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
	c, err := FaultConfig{MinDuration: 5, MaxDuration: 5}.Validate()
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
		{CorruptProb: math.NaN()},
		{MaxDeadLinks: -1},
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
	if c.MaxDeadLinks != 2 {
		t.Fatalf("defaults not filled: MaxDeadLinks %d", c.MaxDeadLinks)
	}
}

// TestFaultMaxConcurrentKeepsStreamAligned pins the draw-stream
// discipline: when the concurrency cap swallows a fault, the Bernoulli
// draw is still consumed, so the schedule after saturation is identical to
// a replay of the same seed — and fixed-length durations show up verbatim.
func TestFaultMaxConcurrentKeepsStreamAligned(t *testing.T) {
	mk := func() *Network {
		return scheduled(t, FaultConfig{
			Seed:          21,
			LinkStallProb: 0.9,
			NIStallProb:   0.9,
			MinDuration:   6,
			MaxDuration:   6,
			MaxConcurrent: 1, // saturates immediately
		}, 0, nil)
	}
	a, b := mk(), mk()
	var ha, hb horizonLog
	for c := int64(0); c < 200; c++ {
		before := a.FaultEvents()
		a.Step()
		b.Step()
		ha.observe(a, int(c))
		hb.observe(b, int(c))
		active := 0
		for _, e := range a.faults.expires {
			if e > c {
				active++
			}
		}
		if active > 1 {
			t.Fatalf("cycle %d: %d active faults exceed MaxConcurrent 1", c, active)
		}
		if a.FaultEvents() > before {
			if until := a.faults.expires[len(a.faults.expires)-1]; until != c+6 {
				t.Fatalf("cycle %d: fixed-range fault lasts until %d, want %d", c, until, c+6)
			}
		}
	}
	if a.FaultEvents() != b.FaultEvents() || ha.sum() != hb.sum() {
		t.Fatal("saturated schedules diverged between identical replays")
	}
	if a.FaultEvents() == 0 {
		t.Fatal("saturation suppressed every fault; the test exercises nothing")
	}
	// 200 cycles of p=0.9 draws inject far more than the ~34 a 6-cycle
	// serial occupancy allows only if draws were mis-consumed.
	if a.FaultEvents() > 40 {
		t.Fatalf("%d events under MaxConcurrent 1 with 6-cycle faults", a.FaultEvents())
	}
}

// TestFaultCorruptionRequiresRecovery pins ScheduleFaults' refusal to
// corrupt a network that cannot detect it.
func TestFaultCorruptionRequiresRecovery(t *testing.T) {
	n := newTestNet(t, nil) // RetransBufPkts zero: recovery off
	if err := n.ScheduleFaults(FaultConfig{CorruptProb: 0.1}, 0); err == nil {
		t.Fatal("ScheduleFaults accepted corruption without the recovery layer")
	}
	nr := newTestNet(t, func(c *Config) { c.RetransBufPkts = 4 })
	if err := nr.ScheduleFaults(FaultConfig{CorruptProb: 0.1}, 0); err != nil {
		t.Fatalf("ScheduleFaults rejected a recovery-enabled network: %v", err)
	}
	// A config of zero probabilities never injects, so it needs no
	// recovery layer and installs nothing.
	if err := n.ScheduleFaults(FaultConfig{Seed: 3, MaxDeadLinks: 4}, 0); err != nil {
		t.Fatalf("ScheduleFaults rejected a config that injects nothing: %v", err)
	}
	if n.faults != nil {
		t.Fatal("a config that injects nothing installed a schedule")
	}
}
