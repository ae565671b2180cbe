package noc

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// The event-driven step against its reference. scanStep visits every
// router, ejector and NI in every cycle, whatever their counters and busy
// bits say; TestStepMatchesScan drives twin networks with one traffic
// script — one stepped by Step, the other by scanStep — and compares
// them after every cycle. CheckInvariants runs on the stepped twin each
// cycle too, so a missing busy mark fails at once.

// scanStep is Step with nothing skipped: Step's three sweeps, in node order,
// over every component.
func (n *Network) scanStep() {
	now := n.now
	for i := range n.routers {
		n.routers[i].applyArrivals()
		n.ejectors[i].applyArrivals()
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
	// so Step may leave them for the next cycle.
	wokeAbove int
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
	for i := range l.routers {
		idle[i] = l.routerFlits[i] == 0
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
			if up := rt.in[sf.port].upstream; up >= 0 && int(up) < j {
				tw.wokeAbove++
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
	if l.VAGrants() != r.VAGrants() || l.InFlight() != r.InFlight() {
		tw.t.Fatalf("cycle %d: VA grants/in flight %d/%d, reference %d/%d", now,
			l.VAGrants(), l.InFlight(), r.VAGrants(), r.InFlight())
	}
	if !slices.Equal(tw.log[0], tw.log[1]) {
		tw.t.Fatalf("cycle %d: deliveries %v, reference %v", now, tw.log[0], tw.log[1])
	}
	tw.log[0], tw.log[1] = tw.log[0][:0], tw.log[1][:0]
	if d := stateDiff(l, r); d != "" {
		tw.t.Fatalf("cycle %d: state differs at %s\n%s\nreference\n%s", now, d, stateJSON(l), stateJSON(r))
	}
}

// stateDiff names the first difference between what a's and b's
// StateSnapshot report, "" when there is none. It reads the networks in
// place, the snapshot's fields in the snapshot's terms, so comparing every
// cycle costs no dump and no reflection.
func stateDiff(a, b *Network) string {
	if a.now != b.now || a.inFlight != b.inFlight {
		return "cycle or in-flight count"
	}
	ka, oa := oldest5(a)
	kb, ob := oldest5(b)
	if ka != kb {
		return "oldest packets"
	}
	for i := range ka {
		if a.packetDump(oa[i]) != b.packetDump(ob[i]) {
			return "oldest packets"
		}
	}
	for id := range a.routers {
		if d := routerDiff(a, b, id); d != "" {
			return fmt.Sprintf("router %d %s", id, d)
		}
	}
	return ""
}

// oldest5 returns the snapshot's oldest packets (by CreatedAt, then ID) by
// insertion into five slots rather than a sort of every live packet.
func oldest5(n *Network) (k int, top [5]*Packet) {
	older := func(p, q *Packet) bool {
		return p.CreatedAt < q.CreatedAt || p.CreatedAt == q.CreatedAt && p.ID < q.ID
	}
	for _, p := range n.pkts.pkts {
		if p == nil {
			continue
		}
		i := k
		if k < len(top) {
			k++
		} else if older(p, top[k-1]) {
			i = k - 1
		} else {
			continue
		}
		for ; i > 0 && older(p, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = p
	}
	return k, top
}

// routerDiff compares node id's RouterDump on a and b: whether it is dumped
// at all, its flit levels, its input VCs and staged arrivals, its output
// credits and owners, and its NI.
func routerDiff(a, b *Network, id int) string {
	ra, rb := &a.routers[id], &b.routers[id]
	ea, eb, na, nb := &a.ejectors[id], &b.ejectors[id], &a.nis[id], &b.nis[id]
	if ra.flitCount() != rb.flitCount() || ea.flitCount() != eb.flitCount() || na.queuedFlits() != nb.queuedFlits() {
		return "flit levels"
	}
	if ra.flitCount() == 0 && ea.flitCount() == 0 && na.queuedFlits() == 0 {
		return "" // not dumped
	}
	if ra.isMC != rb.isMC || na.queuedFlits() > 0 && na.mode != nb.mode {
		return "MC tag or NI mode"
	}
	for p := range ra.in {
		if countStaged(ra.staged, p, -1) != countStaged(rb.staged, p, -1) {
			return fmt.Sprintf("in %d staged", p)
		}
		for v := 0; v < ra.nvc; v++ {
			va, vb := &ra.vcs[p*ra.nvc+v], &rb.vcs[p*rb.nvc+v]
			if va.state != vb.state || va.buf.len() != vb.buf.len() {
				return fmt.Sprintf("in %d vc %d state or level", p, v)
			}
			if !va.buf.empty() {
				fa, fb := va.buf.front(a.handles), vb.buf.front(b.handles)
				if fa.seq != fb.seq || a.packetDump(a.pkts.of(fa.h)) != b.packetDump(b.pkts.of(fb.h)) {
					return fmt.Sprintf("in %d vc %d head", p, v)
				}
			}
			if va.state != vcIdle && (va.outPort != vb.outPort || va.outVC != vb.outVC || va.waitSince != vb.waitSince) {
				return fmt.Sprintf("in %d vc %d route or wait", p, v)
			}
		}
	}
	for o := range ra.out {
		for v := 0; v < ra.nvc; v++ {
			i := o*ra.nvc + v
			if ra.outVC(o, v).credits+ra.creditIn[i] != rb.outVC(o, v).credits+rb.creditIn[i] || ra.owner(o, v) != rb.owner(o, v) {
				return fmt.Sprintf("out %d vc %d credits or owner", o, v)
			}
		}
	}
	return ""
}

// stateJSON is n's state snapshot, indented, for a failure message.
func stateJSON(n *Network) []byte {
	b, _ := json.MarshalIndent(n.StateSnapshot(), "", "  ")
	return b
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
	if !reflect.DeepEqual(l.LinkLoad(), r.LinkLoad()) || !slices.Equal(l.NILoad(), r.NILoad()) {
		tw.t.Fatal("link loads or NI loads differ from the reference")
	}
	if l.stats.TotalPackets() == 0 {
		tw.t.Fatal("no packet was delivered: the script drove nothing")
	}
}

// TestStepMatchesScan holds the busy-set step to the reference that visits
// everything, across routing, NI architectures, priorities, a two-word busy
// set and a closing sink gate. Traffic
// alternates dense and sparse phases so routers keep going idle and waking.
func TestStepMatchesScan(t *testing.T) {
	split := func(every int, nc NodeConfig) func(c *Config) {
		return func(c *Config) {
			c.MCNodes, c.MC = everyKth(c.Mesh, every), nc
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		cycles int  // of scripted traffic; 2400 when zero
		gated  bool // a sink gate closes on a rotating set of nodes
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
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
				tw.step()
			}
			tw.finish()
			t.Logf("%d packets; %d routers woke mid-sweep above its position",
				tw.live.stats.TotalPackets(), tw.wokeAbove)

			if tw.wokeAbove == 0 {
				t.Fatal("no router was woken mid-sweep by a lower-numbered neighbour")
			}
		})
	}
}
