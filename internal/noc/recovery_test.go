package noc

import (
	"testing"

	"repro/internal/rng"
)

// recoveryNet builds a test network with the fault-recovery layer enabled
// and invariants checked every cycle.
func recoveryNet(t *testing.T, mutate func(*Config)) checkedNet {
	t.Helper()
	n := newTestNet(t, func(c *Config) {
		c.RetransBufPkts = 4
		if mutate != nil {
			mutate(c)
		}
	})
	return checkedNet{n, t, 1}
}

func TestPacketCheckCoversIdentity(t *testing.T) {
	p := &Packet{ID: 7, Type: ReadReply, Src: 1, Dst: 14, Size: 9}
	c := PacketCheck(p)
	if c == 0 {
		t.Fatal("checksum of a non-zero packet is zero")
	}
	if PacketCheck(p) != c {
		t.Fatal("checksum not deterministic")
	}
	for name, q := range map[string]*Packet{
		"id":   {ID: 8, Type: ReadReply, Src: 1, Dst: 14, Size: 9},
		"type": {ID: 7, Type: WriteRequest, Src: 1, Dst: 14, Size: 9},
		"src":  {ID: 7, Type: ReadReply, Src: 2, Dst: 14, Size: 9},
		"dst":  {ID: 7, Type: ReadReply, Src: 1, Dst: 13, Size: 9},
		"size": {ID: 7, Type: ReadReply, Src: 1, Dst: 14, Size: 8},
	} {
		if PacketCheck(q) == c {
			t.Errorf("checksum insensitive to %s", name)
		}
	}
}

// TestCorruptionDetectedAndRetransmitted corrupts the first hop of an XY
// route and verifies the end-to-end protocol: the corrupted copy is dropped
// and NACKed, the retransmission is delivered exactly once with a matching
// checksum, and the recovery counters reconcile.
func TestCorruptionDetectedAndRetransmitted(t *testing.T) {
	n := recoveryNet(t, nil)
	delivered := make(map[uint64]int)
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
		delivered[pkt.ID]++
		if want := PacketCheck(pkt); pkt.Check != want {
			t.Errorf("delivered packet %d check %#x != recomputed %#x", pkt.ID, pkt.Check, want)
		}
	})
	// Corrupt node 0's East link long enough to damage the whole first copy
	// of a 9-flit packet, but not the retransmission.
	n.fault(flitCorrupt, 0, int(East), 30)
	pkt := mkPacket(n.Config(), ReadReply, 3) // 0 -> 3: pure East, crosses the window
	if !n.Inject(0, pkt) {
		t.Fatal("Inject rejected")
	}
	runUntilIdle(t, n, 2000)

	rs := n.RecoveryStats()
	if rs.CorruptFlits == 0 {
		t.Fatal("no flit was corrupted: the window never hit the traffic")
	}
	if rs.CorruptPackets == 0 {
		t.Fatal("corrupted flits delivered without a packet drop")
	}
	if rs.CorruptPackets != rs.NacksSent || rs.CorruptPackets != rs.RetransPackets {
		t.Fatalf("drops %d, NACKs %d, retransmissions %d must agree",
			rs.CorruptPackets, rs.NacksSent, rs.RetransPackets)
	}
	if got := delivered[pkt.ID]; got != 1 {
		t.Fatalf("packet delivered %d times, want exactly 1", got)
	}
	if rs.AcksSent != 1 {
		t.Fatalf("AcksSent %d, want 1", rs.AcksSent)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
}

// TestOneCorruptBodyFlit opens a one-cycle corruption window on node 0's
// East link just as the second flit of a 0 -> 3 packet crosses it. That one
// body flit marks the whole packet bad: one corrupt flit, one dropped
// packet, one NACK, and one retransmission that crosses the healed link
// clean and is delivered once and ACKed.
func TestOneCorruptBodyFlit(t *testing.T) {
	n := recoveryNet(t, nil)
	delivered := 0
	n.SetEjectHandler(func(_ int, pkt *Packet, _ int64) {
		delivered++
		if want := PacketCheck(pkt); pkt.Check != want {
			t.Errorf("delivered packet %d check %#x != recomputed %#x", pkt.ID, pkt.Check, want)
		}
	})
	pkt := mkPacket(n.Config(), ReadReply, 3)
	if !n.Inject(0, pkt) {
		t.Fatal("Inject rejected")
	}
	east := &n.routers[0].out[East]
	for east.flits == 0 {
		n.Step()
	}
	// The head has crossed; the body streams right behind it.
	n.fault(flitCorrupt, 0, int(East), n.Now()+1)
	n.Step()
	if east.flits != 2 {
		t.Fatalf("%d flits crossed the link by the end of the window, want the head and one body flit", east.flits)
	}
	runUntilIdle(t, n, 2000)

	want := RecoveryStats{CorruptFlits: 1, CorruptPackets: 1, NacksSent: 1, AcksSent: 1,
		RetransPackets: 1, RetransFlits: uint64(pkt.Size)}
	if rs := n.RecoveryStats(); rs != want {
		t.Fatalf("recovery counters %+v, want %+v", rs, want)
	}
	if delivered != 1 {
		t.Fatalf("packet delivered %d times, want exactly 1", delivered)
	}
}

// TestCorruptionWindowClosedBeforeCrossing opens a corruption window on node
// 1's East link that closes the very cycle a 0 -> 3 packet's head crosses
// it: the window never overlaps the packet, so nothing is marked, dropped
// or retransmitted, and no packet-table slot carries a mark at any cycle.
func TestCorruptionWindowClosedBeforeCrossing(t *testing.T) {
	n := recoveryNet(t, nil)
	delivered := 0
	n.SetEjectHandler(func(int, *Packet, int64) { delivered++ })
	const closes = 2 // injected at 0: NI link, router 0, then router 1 at cycle 2
	n.fault(flitCorrupt, 1, int(East), closes)
	if !n.Inject(0, mkPacket(n.Config(), ReadReply, 3)) {
		t.Fatal("Inject rejected")
	}
	east, crossed := &n.routers[1].out[East], int64(-1)
	for !n.Idle() && n.Now() < 2000 {
		now := n.Now()
		n.Step()
		if crossed < 0 && east.flits > 0 {
			crossed = now
		}
		for h, bad := range n.pkts.bad {
			if bad {
				t.Fatalf("cycle %d: packet slot %d marked corrupt", now, h)
			}
		}
	}
	if crossed != closes {
		t.Fatalf("head crossed node 1's East link at cycle %d, want %d: the window is not at the boundary", crossed, closes)
	}
	if rs := n.RecoveryStats(); rs != (RecoveryStats{AcksSent: 1}) {
		t.Fatalf("recovery counters %+v, want a single ACK", rs)
	}
	if delivered != 1 {
		t.Fatalf("packet delivered %d times, want exactly 1", delivered)
	}
}

// TestRepeatedRetransmissionAndBackpressure keeps the only XY path corrupted
// across several round trips: every copy inside the window is dropped again,
// so one packet retransmits repeatedly until the window lapses. With a
// 1-packet retransmission buffer the NI must refuse new traffic while the
// packet is unacknowledged.
func TestRepeatedRetransmissionAndBackpressure(t *testing.T) {
	n := recoveryNet(t, func(c *Config) { c.RetransBufPkts = 1 })
	deliveries := 0
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) { deliveries++ })
	n.fault(flitCorrupt, 0, int(East), 200)
	pkt := mkPacket(n.Config(), ReadReply, 3)
	if !n.Inject(0, pkt) {
		t.Fatal("Inject rejected")
	}
	// While the packet is unacknowledged the 1-deep retransmission buffer
	// must backpressure the node — the protocol's "data stall" condition.
	// The rejection must go through Offer so it is counted.
	probe := mkPacket(n.Config(), ReadRequest, 2)
	n.Step()
	if n.CanInject(0, probe) {
		t.Fatal("CanInject true while the retransmission buffer is full")
	}
	if n.Inject(0, probe) {
		t.Fatal("Inject accepted while the retransmission buffer is full")
	}
	runUntilIdle(t, n, 5000)
	rs := n.RecoveryStats()
	if rs.RetransPackets < 2 {
		t.Fatalf("RetransPackets %d: the long window should force repeated retransmission", rs.RetransPackets)
	}
	if deliveries != 1 {
		t.Fatalf("deliveries %d, want exactly 1", deliveries)
	}
	if rs.RetransBufFullRejects == 0 {
		t.Fatal("full retransmission buffer never counted a reject")
	}
	if !n.CanInject(0, probe) {
		t.Fatal("CanInject still false after the ACK freed the buffer")
	}
}

// TestTracerSeesRetransmittedPackets: a packet that corruption dropped and
// the NI retransmitted is traced like any other, once, at its clean
// delivery, with the retransmitted shell's stamps in order. Random traffic
// on the 4x4 mesh under 10% link corruption, every packet sampled, drained.
func TestTracerSeesRetransmittedPackets(t *testing.T) {
	n := recoveryNet(t, func(c *Config) { c.RetransBufPkts = 8 })
	if err := n.ScheduleFaults(FaultConfig{Seed: 1, CorruptProb: 0.1}, 0); err != nil {
		t.Fatal(err)
	}
	rec := &lifecycleRecorder{f: n, seen: make(map[uint64]Packet), at: make(map[uint64]int64)}
	n.SetTracer(rec, 1)
	delivered := make(map[uint64]int)
	n.SetEjectHandler(func(_ int, pkt *Packet, _ int64) { delivered[pkt.ID]++ })
	cfg, r := n.Config(), rng.New(3)
	nodes := cfg.Mesh.Nodes()
	for c := 0; c < 1500; c++ {
		for s := 0; s < nodes; s++ {
			if r.Intn(4) == 0 {
				n.Inject(s, mkPacket(cfg, []PacketType{ReadRequest, ReadReply}[r.Intn(2)], r.Intn(nodes)))
			}
		}
		n.Step()
	}
	runUntilIdle(t, n, 20000)

	if n.RecoveryStats().RetransPackets == 0 {
		t.Fatal("no packet was retransmitted: the corruption never hit the traffic")
	}
	if rec.dups != 0 || len(rec.seen) != len(delivered) {
		t.Fatalf("tracer saw %d packets (%d twice), %d were delivered", len(rec.seen), rec.dups, len(delivered))
	}
	for id, times := range delivered {
		p, ok := rec.seen[id]
		if times != 1 || !ok {
			t.Fatalf("packet %d: delivered %d times, traced %v", id, times, ok)
		}
		if !(p.CreatedAt <= p.InjectedAt && p.InjectedAt <= p.ArrivedAt && p.ArrivedAt <= p.EjectedAt) {
			t.Fatalf("packet %d: stamps out of order: created %d, injected %d, arrived %d, ejected %d",
				id, p.CreatedAt, p.InjectedAt, p.ArrivedAt, p.EjectedAt)
		}
	}
}

// TestKillLinkDetour kills the XY-path link of an XY-routed packet and
// verifies the fault detour still delivers it, for both routing algorithms.
func TestKillLinkDetour(t *testing.T) {
	for _, algo := range []RoutingAlgo{RouteXY, RouteMinAdaptive} {
		t.Run(algo.String(), func(t *testing.T) {
			n := recoveryNet(t, func(c *Config) { c.Routing = algo })
			delivered := 0
			n.SetEjectHandler(func(node int, pkt *Packet, now int64) { delivered++ })
			// 0 -> 3 is pure East under XY; kill the first East hop.
			if !n.killLink(0, int(East)) {
				t.Fatal("killLink refused a legal kill")
			}
			if n.DeadLinks() != 1 {
				t.Fatalf("DeadLinks %d, want 1", n.DeadLinks())
			}
			if n.killLink(0, int(East)) {
				t.Fatal("killLink succeeded twice on the same link")
			}
			if n.killLink(0, int(North)) {
				t.Fatal("killLink succeeded on a mesh edge with no link")
			}
			for i := 0; i < 4; i++ {
				pkt := mkPacket(n.Config(), ReadRequest, 3)
				for !n.Inject(0, pkt) {
					n.Step()
				}
				n.Step()
			}
			runUntilIdle(t, n, 4000)
			if delivered != 4 {
				t.Fatalf("delivered %d packets around the dead link, want 4", delivered)
			}
		})
	}
}

// TestKillLinkReroutesWaitingPackets kills a link while packets are already
// waiting on it (routed but not granted a VC) and verifies the stale-epoch
// recompute detours them instead of granting them onto the dead link.
func TestKillLinkReroutesWaitingPackets(t *testing.T) {
	n := recoveryNet(t, nil)
	delivered := 0
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) { delivered++ })
	// Stall router 1's East link so worms pile up contending for it: the
	// first VCs-many packets claim the downstream VCs (active owners that
	// later drain gracefully over the dead link), the rest sit in vcWaitVC
	// with East in their stale route candidates.
	n.StallLink(1, int(East), 60)
	want := 0
	for i := 0; i < 4; i++ {
		for _, src := range []int{0, 1} {
			pkt := mkPacket(n.Config(), ReadRequest, 3)
			for !n.Inject(src, pkt) {
				n.Step()
			}
			want++
		}
		n.Step()
	}
	for n.Now() < 30 {
		n.Step()
	}
	if !n.killLink(1, int(East)) {
		t.Fatal("killLink refused")
	}
	runUntilIdle(t, n, 4000)
	if delivered != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
	// The detour is observable: waiting packets recomputed after the kill
	// leave router 1 southward; without the dead-epoch recompute they would
	// all eventually cross the dead East link behind the draining owners.
	if south := n.LinkLoad()[1][South]; south == 0 {
		t.Fatal("no flit detoured over router 1's South link")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
}

// TestKillLinkConnectivityGuard verifies kills that would disconnect the
// alive-link digraph are refused.
func TestKillLinkConnectivityGuard(t *testing.T) {
	n := newTestNet(t, func(c *Config) {
		c.Mesh = Mesh{Width: 2, Height: 2}
		c.RetransBufPkts = 2
	})
	if !n.killLink(0, int(East)) {
		t.Fatal("first kill refused")
	}
	// Node 0's only remaining outgoing link is South; killing it would strand
	// the node's traffic.
	if n.killLink(0, int(South)) {
		t.Fatal("kill disconnecting node 0 was allowed")
	}
	if n.DeadLinks() != 1 {
		t.Fatalf("DeadLinks %d, want 1", n.DeadLinks())
	}
}
