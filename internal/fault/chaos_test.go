package fault

import (
	"testing"

	"repro/internal/noc"
)

// runChaos drives seeded traffic through a network under the full chaos
// schedule — stalls, freezes, NI bursts, flit corruption and permanent link
// death — and verifies the recovery protocol end to end: zero undetected
// corruption (every delivered packet's checksum recomputes), exactly-once
// delivery of every accepted packet, and clean invariants after drain. It
// returns the recovery counters and the fault schedule that ran.
func runChaos(t *testing.T, name string, mutate func(*noc.Config), seed uint64) (noc.RecoveryStats, []Event) {
	t.Helper()
	cfg := noc.Config{
		Mesh:           noc.Mesh{Width: 4, Height: 4},
		VCs:            4,
		LinkBits:       128,
		DataBytes:      128,
		Routing:        noc.RouteXY,
		RetransBufPkts: 8,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatalf("%s: Validate: %v", name, err)
	}
	n, err := noc.NewNetwork(cfg)
	if err != nil {
		t.Fatalf("%s: NewNetwork: %v", name, err)
	}
	inj, err := NewInjector(ChaosConfig(seed), n, 1)
	if err != nil {
		t.Fatalf("%s: NewInjector: %v", name, err)
	}

	delivered := make(map[uint64]int)
	n.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) {
		delivered[pkt.ID]++
		if want := noc.PacketCheck(pkt); pkt.Check != want {
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
	types := []noc.PacketType{noc.ReadRequest, noc.WriteRequest, noc.ReadReply, noc.WriteReply}
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
				pkt := &noc.Packet{ID: seq, Type: typ, Dst: d, Size: noc.PacketSize(typ, cfg.LinkBits, cfg.DataBytes)}
				if n.Inject(s, pkt) {
					seq++
					injected++
				}
			}
		}
		inj.Step(n.Now())
		stepChecked(t, name, n)
	}

	// Drain: transient faults expire on their own; dead links stay dead and
	// the detours must still deliver everything, retransmissions included.
	for i := 0; i < 300000 && !n.Idle(); i++ {
		stepChecked(t, name, n)
	}
	if !n.Idle() {
		t.Fatalf("%s: network did not drain under chaos (inFlight=%d, ctl=%d)\n%s",
			name, n.InFlight(), n.CtlPending(), n.StateSnapshot().String())
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
	return rs, inj.Events()
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
			rs, events := runChaos(t, name, mutate, seed)
			if rs.CorruptFlits == 0 || rs.CorruptPackets == 0 {
				t.Fatal("chaos schedule corrupted nothing; the soak exercises nothing")
			}
			kinds := make(map[Kind]int)
			for _, e := range events {
				kinds[e.Kind]++
			}
			if kinds[FlitCorrupt] == 0 {
				t.Fatal("no flit-corrupt event in the schedule")
			}
			if kinds[LinkDeath] == 0 {
				t.Fatal("no link death in the schedule; pick a seed that kills a link")
			}
		})
		seed++
	}
}
