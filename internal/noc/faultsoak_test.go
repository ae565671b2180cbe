package noc

import (
	"encoding/json"
	"reflect"
	"testing"
)

// The fault soaks: seeded random traffic through a network under a dense
// fault schedule, then a drain with the schedule removed, checking zero
// flit loss and clean invariants throughout.

// soakFingerprint is everything a soak run observes; two runs with the same
// seed must produce identical fingerprints.
type soakFingerprint struct {
	InjectedFlits uint64
	EjectedFlits  uint64
	Stats         NetStats
	Faults        int
	// Horizons digests the fault horizons of every soak cycle.
	Horizons string
}

// stopFaults removes n's fault schedule, so a drain draws no new faults,
// and returns the number of faults it injected.
func stopFaults(n *Network) int {
	faults := n.FaultEvents()
	n.faults = nil
	return faults
}

// runSoak drives seeded random traffic through a faulted network, then
// drains it and verifies zero flit loss and clean invariants.
func runSoak(t *testing.T, name string, mutate func(*Config), seed uint64) soakFingerprint {
	t.Helper()
	n := scheduled(t, SoakFaults(seed), 1, mutate)
	cfg := n.Config()

	var ejected uint64
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		ejected += uint64(pkt.Size)
	})

	// Deterministic traffic stream, independent of the fault stream.
	lcg := seed ^ 0xdeadbeef
	next := func(mod int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int(lcg>>33) % mod
	}
	types := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
	var injected uint64
	var horizons horizonLog
	for cycle := 0; cycle < 3000; cycle++ {
		for s := 0; s < cfg.Mesh.Nodes(); s++ {
			if next(10) < 4 {
				d := next(cfg.Mesh.Nodes())
				if d == s {
					continue
				}
				typ := types[next(4)]
				pkt := &Packet{Type: typ, Dst: d, Size: PacketSize(typ, cfg.LinkBits, cfg.DataBytes)}
				if n.Inject(s, pkt) {
					injected += uint64(pkt.Size)
				}
			}
		}
		stepChecked(t, name, n)
		horizons.observe(n, cycle)
	}
	faults := stopFaults(n)
	if faults == 0 {
		t.Fatalf("%s: soak injected no faults; probabilities too low to exercise anything", name)
	}

	// Drain: no new traffic or faults; already-applied faults expire on
	// their own, after which every buffered flit must reach its ejector.
	for i := 0; i < 200000 && !n.Idle(); i++ {
		stepChecked(t, name, n)
	}
	if !n.Idle() {
		t.Fatalf("%s: network did not drain after faults expired (inFlight=%d)\n%s",
			name, n.InFlight(), stateJSON(n))
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants dirty after drain: %v", name, err)
	}
	if ejected != injected {
		t.Fatalf("%s: flit loss under faults: injected %d, ejected %d", name, injected, ejected)
	}
	return soakFingerprint{
		InjectedFlits: injected,
		EjectedFlits:  ejected,
		Stats:         *n.Stats(),
		Faults:        faults,
		Horizons:      horizons.sum(),
	}
}

// stepChecked advances n one cycle and checks every NoC invariant each 64
// cycles of a soak, drain included — among them that the live packet-table
// slots are exactly the packets with a buffered flit, which holds the
// watchdog's age scan to a walk of every buffer — and the age scan against
// the sorted list of the diagnostics.
func stepChecked(t *testing.T, name string, n *Network) {
	t.Helper()
	now := n.Now()
	n.Step()
	if now%64 == 0 {
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariant violated at cycle %d: %v", name, now, err)
		}
		want := int64(0)
		if old := n.OldestPackets(1); len(old) > 0 {
			want = n.Now() - old[0].CreatedAt
		}
		if got := n.OldestPacketAge(); got != want {
			t.Fatalf("%s: cycle %d: OldestPacketAge %d, oldest of OldestPackets %d cycles", name, now, got, want)
		}
	}
}

// soakSchemes are the ≥3 injection architectures the soak matrix covers:
// the XY baseline, an ARI-style configuration (adaptive routing, split NIs
// with crossbar speedup and prioritisation), and the MultiPort scheme.
func soakSchemes() map[string]func(*Config) {
	return map[string]func(*Config){
		"xy-baseline": nil,
		"ada-ari": func(c *Config) {
			c.Routing = RouteMinAdaptive
			c.PriorityLevels = 2
			c.MCNodes, c.MC = everyKth(c.Mesh, 3), NodeConfig{NI: NISplit, InjSpeedup: 4}
		},
		"multiport": func(c *Config) {
			c.Routing = RouteMinAdaptive
			c.MCNodes, c.MC = everyKth(c.Mesh, 4), NodeConfig{NI: NIMultiPort, InjPorts: 2}
		},
	}
}

// TestSoakZeroFlitLoss is the fault-injection soak: every scheme absorbs a
// dense schedule of link stalls, port freezes and NI bursts with zero flit
// loss and invariants clean throughout (checked every 64 cycles).
func TestSoakZeroFlitLoss(t *testing.T) {
	seed := uint64(11)
	for name, mutate := range soakSchemes() {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			runSoak(t, name, mutate, seed)
		})
		seed++
	}
}

// TestSoakDeterministicReplay pins seeded replayability: the same seed
// produces a byte-identical fault schedule and simulation outcome, and a
// different seed produces a different schedule.
func TestSoakDeterministicReplay(t *testing.T) {
	schemes := soakSchemes()
	a := runSoak(t, "ada-ari", schemes["ada-ari"], 42)
	b := runSoak(t, "ada-ari", schemes["ada-ari"], 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	c := runSoak(t, "ada-ari", schemes["ada-ari"], 43)
	if a.Horizons == c.Horizons {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// runChaos drives seeded traffic through a network under the full chaos
// schedule — stalls, freezes, NI bursts, flit corruption and permanent link
// death — and verifies the recovery protocol end to end: zero undetected
// corruption (every delivered packet's checksum recomputes), exactly-once
// delivery of every accepted packet, and clean invariants after drain. It
// returns the recovery counters.
func runChaos(t *testing.T, name string, mutate func(*Config), seed uint64) RecoveryStats {
	t.Helper()
	n := scheduled(t, ChaosFaults(seed), 1, func(c *Config) {
		c.RetransBufPkts = 8
		if mutate != nil {
			mutate(c)
		}
	})
	cfg := n.Config()

	delivered := make(map[uint64]int)
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		delivered[pkt.ID]++
		if want := PacketCheck(pkt); pkt.Check != want {
			t.Errorf("%s: undetected corruption: packet %d delivered with check %#x, recomputed %#x",
				name, pkt.ID, pkt.Check, want)
		}
	})

	// Deterministic traffic with explicit packet IDs.
	lcg := seed ^ 0xfeedface
	next := func(mod int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int(lcg>>33) % mod
	}
	types := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
	seq := uint64(1)
	var injected uint64
	for cycle := 0; cycle < 2500; cycle++ {
		for s := 0; s < cfg.Mesh.Nodes(); s++ {
			if next(10) < 4 {
				d := next(cfg.Mesh.Nodes())
				if d == s {
					continue
				}
				typ := types[next(4)]
				pkt := &Packet{ID: seq, Type: typ, Dst: d, Size: PacketSize(typ, cfg.LinkBits, cfg.DataBytes)}
				if n.Inject(s, pkt) {
					seq++
					injected++
				}
			}
		}
		stepChecked(t, name, n)
	}
	stopFaults(n)

	// Drain: transient faults expire on their own; dead links stay dead and
	// the detours must still deliver everything, retransmissions included.
	for i := 0; i < 300000 && !n.Idle(); i++ {
		stepChecked(t, name, n)
	}
	if !n.Idle() {
		t.Fatalf("%s: network did not drain under chaos (inFlight=%d, ctl=%d)\n%s",
			name, n.InFlight(), n.CtlPending(), stateJSON(n))
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants dirty after drain: %v", name, err)
	}

	var total uint64
	for id, c := range delivered {
		if c != 1 {
			t.Errorf("%s: packet %d delivered %d times, want exactly once", name, id, c)
		}
		total += uint64(c)
	}
	if total != injected {
		t.Fatalf("%s: accepted %d packets but delivered %d", name, injected, total)
	}
	rs := n.RecoveryStats()
	if rs.CorruptPackets != rs.NacksSent || rs.CorruptPackets != rs.RetransPackets {
		t.Fatalf("%s: drops %d, NACKs %d, retransmissions %d must agree",
			name, rs.CorruptPackets, rs.NacksSent, rs.RetransPackets)
	}
	if rs.AcksSent != injected {
		t.Fatalf("%s: AcksSent %d != accepted packets %d", name, rs.AcksSent, injected)
	}
	return rs
}

// TestChaosZeroUndetectedCorruption is the headline robustness soak: all
// three injection architectures absorb the layered chaos schedule with
// every corruption detected, every packet delivered exactly once, and at
// least one permanent link death actually detoured around.
func TestChaosZeroUndetectedCorruption(t *testing.T) {
	seed := uint64(101)
	for name, mutate := range soakSchemes() {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			rs := runChaos(t, name, mutate, seed)
			if rs.CorruptFlits == 0 || rs.CorruptPackets == 0 {
				t.Fatal("chaos schedule corrupted nothing; the soak exercises nothing")
			}
			if rs.DeadLinks == 0 {
				t.Fatal("no link death in the schedule; pick a seed that kills a link")
			}
		})
		seed++
	}
}

// stateJSON is a stuck network's state as the watchdog's dump shows it.
func stateJSON(n *Network) []byte {
	b, _ := json.MarshalIndent(n.StateSnapshot(), "", "  ")
	return b
}
