package noc

import "testing"

// TestNarrowLinkThrottlesAcceptance: the unenhanced baseline's narrow
// MC->NI link must refuse a new packet while the previous one serialises
// (9 cycles for a long packet), while the enhanced baseline accepts one
// packet per cycle.
func TestNarrowLinkThrottlesAcceptance(t *testing.T) {
	accepted := func(mode NIMode) int {
		n := newTestNet(t, func(c *Config) {
			c.MCNodes, c.MC = []int{5}, NodeConfig{NI: mode}
		})
		n.SetEjectHandler(func(int, *Packet, int64) {})
		got := 0
		for i := 0; i < 18; i++ {
			if n.Inject(5, mkPacket(n.Config(), ReadReply, 10)) {
				got++
			}
			n.Step()
		}
		return got
	}
	wide := accepted(NIBaseline)
	narrow := accepted(NINarrowLink)
	// Enhanced: limited only by queue space (4 packets) and drain; the
	// narrow link serialises at 9 cycles/packet: 18 cycles -> 2 packets.
	if narrow != 2 {
		t.Fatalf("narrow link accepted %d packets in 18 cycles, want 2", narrow)
	}
	if wide <= narrow {
		t.Fatalf("enhanced baseline (%d) not faster than narrow link (%d)", wide, narrow)
	}
}

// TestNarrowLinkDrains: packets still flow end to end under the mode.
func TestNarrowLinkDrains(t *testing.T) {
	runChecked(t, func(c *Config) {
		c.MCNodes, c.MC = everyKth(c.Mesh, 1), NodeConfig{NI: NINarrowLink}
	}, 800, 77)
}
