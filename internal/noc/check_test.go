package noc

import "testing"

// checkedNet is a Network whose Step checks every invariant each `every`
// cycles and fails the test on the first violation.
type checkedNet struct {
	*Network
	t     *testing.T
	every int64
}

func (c checkedNet) Step() {
	c.t.Helper()
	now := c.Now()
	c.Network.Step()
	if now%c.every == 0 {
		if err := c.CheckInvariants(); err != nil {
			c.t.Fatalf("invariant violated at cycle %d: %v", now, err)
		}
		// The watchdog's packet-table age scan against a walk of every
		// buffered flit, and the diagnostics' sorted list against both.
		want := bufferedOldestAge(c.Network)
		if got := c.OldestPacketAge(); got != want {
			c.t.Fatalf("cycle %d: OldestPacketAge %d, oldest buffered flit %d cycles", now, got, want)
		}
		if old := c.OldestPackets(1); len(old) > 0 && c.Now()-old[0].CreatedAt != want {
			c.t.Fatalf("cycle %d: oldest of OldestPackets %d cycles, oldest buffered flit %d", now, c.Now()-old[0].CreatedAt, want)
		}
	}
}

// bufferedOldestAge is the reference for OldestPacketAge: the age of the
// oldest packet with a flit in any NI queue, staging list, VC ring or
// ejector of n, found by walking every one of them.
func bufferedOldestAge(n *Network) int64 {
	oldest := n.now
	n.forEachHandle(func(_ int, h uint32) { oldest = min(oldest, n.pkts.of(h).CreatedAt) })
	return n.now - oldest
}

// runChecked drives random traffic while validating all invariants every
// few cycles, across a matrix of configurations: each 16 cycles inside
// Step, and at an off-period cadence below.
func runChecked(t *testing.T, mutate func(*Config), cycles int, seed uint64) {
	t.Helper()
	n := checkedNet{newTestNet(t, mutate), t, 16}
	cfg := n.Config()
	n.SetEjectHandler(func(int, *Packet, int64) {})
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	types := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
	for c := 0; c < cycles; c++ {
		for s := 0; s < cfg.Mesh.Nodes(); s++ {
			if next(10) < 5 {
				d := next(cfg.Mesh.Nodes())
				if d != s {
					n.Inject(s, mkPacket(cfg, types[next(4)], d))
				}
			}
		}
		n.Step()
		if c%13 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
	runUntilIdle(t, n, 100000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestInvariantsBaselineXY(t *testing.T) {
	runChecked(t, nil, 1500, 1)
}

func TestInvariantsAdaptive(t *testing.T) {
	runChecked(t, func(c *Config) { c.Routing = RouteMinAdaptive }, 1500, 2)
}

func TestInvariantsARI(t *testing.T) {
	runChecked(t, func(c *Config) {
		c.Routing = RouteMinAdaptive
		c.PriorityLevels = 2
		c.MCNodes, c.MC = everyKth(c.Mesh, 3), NodeConfig{NI: NISplit, InjSpeedup: 4}
	}, 1500, 4)
}

func TestInvariantsMultiPort(t *testing.T) {
	runChecked(t, func(c *Config) {
		c.MCNodes, c.MC = everyKth(c.Mesh, 4), NodeConfig{NI: NIMultiPort, InjPorts: 2}
	}, 1500, 5)
}

func TestInvariantsTwoVCs(t *testing.T) {
	runChecked(t, func(c *Config) {
		c.VCs = 2
		c.Routing = RouteMinAdaptive
	}, 1500, 6)
}

func TestInvariantsWideLinks(t *testing.T) {
	runChecked(t, func(c *Config) { c.LinkBits = 256 }, 1000, 7)
}
