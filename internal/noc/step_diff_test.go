package noc

import (
	"reflect"
	"slices"
	"testing"
)

// The event-driven step against its reference. scanStep visits every
// router, ejector and NI in every cycle, whatever their counters and busy
// bits say; TestStepMatchesScan drives twin networks with one traffic and
// fault script — one stepped by Step, the other by scanStep — and compares
// them after every cycle. CheckInvariants runs on the stepped twin each
// cycle too, so a missing busy mark fails at once.

// scanStep is Step with nothing skipped: Step's three sweeps, in node order,
// over every component.
func (n *Network) scanStep() {
	now := n.now
	for i := range n.routers {
		n.routers[i].applyArrivals(now)
		n.ejectors[i].applyArrivals(now)
		n.nis[i].step(now)
	}
	for i := range n.routers {
		n.routers[i].cycle(now)
	}
	for i := range n.ejectors {
		n.ejectors[i].consume(now)
	}
	n.endCycle()
}

// delivery is one call of an ejection handler.
type delivery struct {
	node int
	id   uint64
	now  int64
}

// twinNets are two networks built from one Config and driven identically:
// live steps with Step, ref with scanStep.
type twinNets struct {
	t         *testing.T
	live, ref *Network
	log       [2][]delivery
	// wokeAbove counts idle routers that a lower-numbered neighbour staged a
	// flit into: woken in the middle of the router sweep, above its position,
	// so Step may leave them for the next cycle. wokeRerouting counts those
	// of them that still had a link kill to re-route for.
	wokeAbove, wokeRerouting int
}

func newTwinNets(t *testing.T, mutate func(*Config)) *twinNets {
	tw := &twinNets{t: t}
	for i, n := range []*Network{newTestNet(t, mutate), newTestNet(t, mutate)} {
		n.SetEjectHandler(func(node int, pkt *Packet, now int64) {
			tw.log[i] = append(tw.log[i], delivery{node, pkt.ID, now})
			// Answer reads like a memory controller: an Offer from inside the
			// ejection sweep, to a node below or above its position.
			if pkt.Type == ReadRequest {
				n.Inject(node, mkPacket(n.Config(), ReadReply, pkt.Src))
			}
		})
		if i == 0 {
			tw.live = n
		} else {
			tw.ref = n
		}
	}
	return tw
}

// both applies f to each twin.
func (tw *twinNets) both(f func(n *Network)) {
	f(tw.live)
	f(tw.ref)
}

func (tw *twinNets) inject(src int, typ PacketType, dst int) {
	tw.t.Helper()
	a := tw.live.Inject(src, mkPacket(tw.live.Config(), typ, dst))
	if b := tw.ref.Inject(src, mkPacket(tw.ref.Config(), typ, dst)); a != b {
		tw.t.Fatalf("cycle %d: node %d Inject %v, reference %v", tw.live.Now(), src, a, b)
	}
}

// step advances both twins one cycle and fails on the first difference.
func (tw *twinNets) step() {
	tw.t.Helper()
	l, r := tw.live, tw.ref
	idle := make([]bool, len(l.routers))
	rerouting := make([]bool, len(l.routers))
	for i := range l.routers {
		idle[i], rerouting[i] = l.routerFlits[i] == 0, l.routers[i].reroute
	}
	now := l.Now()
	l.Step()
	r.scanStep()
	for j := range l.routers {
		if !idle[j] {
			continue
		}
		rt := &l.routers[j]
		for _, sf := range rt.staged {
			if up := rt.in[sf.port].upstream; up != nil && up.id < j {
				tw.wokeAbove++
				if rerouting[j] {
					tw.wokeRerouting++
				}
				break
			}
		}
	}

	if err := l.CheckInvariants(); err != nil {
		tw.t.Fatalf("cycle %d: %v", now, err)
	}
	if l.stats != r.stats {
		tw.t.Fatalf("cycle %d: NetStats %+v, reference %+v", now, l.stats, r.stats)
	}
	if a, b := l.RecoveryStats(), r.RecoveryStats(); a != b {
		tw.t.Fatalf("cycle %d: RecoveryStats %+v, reference %+v", now, a, b)
	}
	if l.VAGrants() != r.VAGrants() || l.InFlight() != r.InFlight() || l.CtlPending() != r.CtlPending() {
		tw.t.Fatalf("cycle %d: VA grants/in flight/ctl pending %d/%d/%d, reference %d/%d/%d", now,
			l.VAGrants(), l.InFlight(), l.CtlPending(), r.VAGrants(), r.InFlight(), r.CtlPending())
	}
	if !slices.Equal(tw.log[0], tw.log[1]) {
		tw.t.Fatalf("cycle %d: deliveries %v, reference %v", now, tw.log[0], tw.log[1])
	}
	tw.log[0], tw.log[1] = tw.log[0][:0], tw.log[1][:0]
	if a, b := l.StateSnapshot(), r.StateSnapshot(); !reflect.DeepEqual(a, b) {
		tw.t.Fatalf("cycle %d: state differs\n%s\nreference\n%s", now, a, b)
	}
}

// finish drains both twins, stepping in lockstep, and compares what is only
// read at the end of a run.
func (tw *twinNets) finish() {
	tw.t.Helper()
	for c := 0; !tw.live.Idle() || !tw.ref.Idle(); c++ {
		if c == 20000 {
			tw.t.Fatalf("twins did not drain (in flight %d / %d)", tw.live.InFlight(), tw.ref.InFlight())
		}
		tw.step()
	}
	l, r := tw.live, tw.ref
	if a, b := l.NIOccupancyAvgFlits(), r.NIOccupancyAvgFlits(); a != b {
		tw.t.Fatalf("NI occupancy %v, reference %v", a, b)
	}
	if !reflect.DeepEqual(l.LinkLoad(), r.LinkLoad()) || !slices.Equal(l.NILoad(), r.NILoad()) ||
		!slices.Equal(l.InjWindows, r.InjWindows) {
		tw.t.Fatal("link loads, NI loads or injection windows differ from the reference")
	}
	if l.stats.TotalPackets() == 0 {
		tw.t.Fatal("no packet was delivered: the script drove nothing")
	}
}

// TestStepMatchesScan holds the busy-set step to the reference that visits
// everything, across routing, NI architectures, priorities, a two-word busy
// set, a closing sink gate, and a faulted run with recovery on. Traffic
// alternates dense and sparse phases so routers keep going idle and waking.
func TestStepMatchesScan(t *testing.T) {
	split := func(every int, nc NodeConfig) func(c *Config) {
		return func(c *Config) {
			c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
			for i := 0; i < c.Mesh.Nodes(); i += every {
				c.Nodes[i] = nc
			}
		}
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Config)
		cycles  int  // of scripted traffic; 2400 when zero
		gated   bool // a sink gate closes on a rotating set of nodes
		faulted bool // stall, freeze, NI-stall and corrupt faults, and link kills
	}{
		{name: "xy"},
		{name: "adaptive", mutate: func(c *Config) { c.Routing = RouteMinAdaptive }},
		{name: "ari", mutate: func(c *Config) {
			c.Routing = RouteMinAdaptive
			c.PriorityLevels = 2
			c.StarvationLimit = 40
			split(3, NodeConfig{NI: NISplit, InjSpeedup: 4})(c)
		}},
		{name: "multiport", mutate: split(4, NodeConfig{NI: NIMultiPort, InjPorts: 2}), gated: true},
		{name: "two-words", cycles: 800, mutate: func(c *Config) {
			c.Mesh = Mesh{Width: 9, Height: 8}
			c.Routing = RouteMinAdaptive
		}},
		{name: "faulted", faulted: true, mutate: func(c *Config) {
			c.Routing = RouteMinAdaptive
			c.PriorityLevels = 2
			c.RetransBufPkts = 4
			split(3, NodeConfig{NI: NISplit, InjSpeedup: 4})(c)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tw := newTwinNets(t, tc.mutate)
			cfg := tw.live.Config()
			nodes := cfg.Mesh.Nodes()
			seed := uint64(len(tc.name))
			next := func(mod int) int {
				seed = seed*6364136223846793005 + 1442695040888963407
				return int(seed>>33) % mod
			}
			if tc.gated {
				tw.both(func(n *Network) {
					n.SetSinkGate(func(node int) bool { return (n.Now()/64+int64(node))%5 != 0 })
				})
			}
			types := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
			cycles := tc.cycles
			if cycles == 0 {
				cycles = 2400
			}
			for c := 0; c < cycles; c++ {
				rate := 40 // sparse: most routers idle
				if c/200%2 == 0 {
					rate = 4
				}
				for s := 0; s < nodes; s++ {
					if next(rate) == 0 {
						if d := next(nodes); d != s {
							tw.inject(s, types[next(4)], d)
						}
					}
				}
				if tc.faulted {
					node, port, until := next(nodes), next(NumDirections), int64(c+4+next(20))
					switch next(24) {
					case 0:
						tw.both(func(n *Network) { n.StallLink(node, port, until) })
					case 1:
						tw.both(func(n *Network) { n.FreezeInputPort(node, port, until) })
					case 2:
						tw.both(func(n *Network) { n.StallNISupply(node, until) })
					case 3:
						tw.both(func(n *Network) { n.CorruptLink(node, port, until-12) })
					}
					// Kill a link early in every sparse phase, when most routers
					// sleep and wake with the re-route still pending.
					for try := 0; c%400 == 250 && try < 20; try++ {
						node, port := next(nodes), next(NumDirections)
						killed := tw.live.KillLink(node, port)
						if tw.ref.KillLink(node, port) != killed {
							t.Fatalf("cycle %d: KillLink disagrees between the twins", c)
						}
						if killed {
							break
						}
					}
				}
				tw.step()
			}
			tw.finish()
			t.Logf("%d packets; %d routers woke mid-sweep above its position, %d of them re-routing",
				tw.live.stats.TotalPackets(), tw.wokeAbove, tw.wokeRerouting)

			if tw.wokeAbove == 0 {
				t.Fatal("no router was woken mid-sweep by a lower-numbered neighbour")
			}
			if tc.faulted {
				rs := tw.live.RecoveryStats()
				if rs.RetransPackets == 0 || rs.DeadLinks == 0 {
					t.Fatalf("faults exercised nothing: %+v", rs)
				}
				if tw.wokeRerouting == 0 {
					t.Fatal("no router woke mid-sweep with a re-route pending")
				}
			}
		})
	}
}
