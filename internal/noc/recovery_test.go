package noc

import (
	"testing"
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
	n.CorruptLink(0, int(East), 30)
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

// TestRepeatedRetransmissionAndBackpressure keeps the only XY path corrupted
// across several round trips: every copy inside the window is dropped again,
// so one packet retransmits repeatedly until the window lapses. With a
// 1-packet retransmission buffer the NI must refuse new traffic while the
// packet is unacknowledged.
func TestRepeatedRetransmissionAndBackpressure(t *testing.T) {
	n := recoveryNet(t, func(c *Config) { c.RetransBufPkts = 1 })
	deliveries := 0
	n.SetEjectHandler(func(node int, pkt *Packet, now int64) { deliveries++ })
	n.CorruptLink(0, int(East), 200)
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

// TestKillLinkDetour kills the XY-path link of an XY-routed packet and
// verifies the fault detour still delivers it, for both routing algorithms.
func TestKillLinkDetour(t *testing.T) {
	for _, algo := range []RoutingAlgo{RouteXY, RouteMinAdaptive} {
		t.Run(algo.String(), func(t *testing.T) {
			n := recoveryNet(t, func(c *Config) { c.Routing = algo })
			delivered := 0
			n.SetEjectHandler(func(node int, pkt *Packet, now int64) { delivered++ })
			// 0 -> 3 is pure East under XY; kill the first East hop.
			if !n.KillLink(0, int(East)) {
				t.Fatal("KillLink refused a legal kill")
			}
			if n.DeadLinks() != 1 {
				t.Fatalf("DeadLinks %d, want 1", n.DeadLinks())
			}
			if n.KillLink(0, int(East)) {
				t.Fatal("KillLink succeeded twice on the same link")
			}
			if n.KillLink(0, int(North)) {
				t.Fatal("KillLink succeeded on a mesh edge with no link")
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
	if !n.KillLink(1, int(East)) {
		t.Fatal("KillLink refused")
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
	if !n.KillLink(0, int(East)) {
		t.Fatal("first kill refused")
	}
	// Node 0's only remaining outgoing link is South; killing it would strand
	// the node's traffic.
	if n.KillLink(0, int(South)) {
		t.Fatal("kill disconnecting node 0 was allowed")
	}
	if n.DeadLinks() != 1 {
		t.Fatalf("DeadLinks %d, want 1", n.DeadLinks())
	}
}
