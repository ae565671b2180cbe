package noc

import (
	"testing"

	"repro/internal/rng"
)

// namedFabric is one Fabric implementer under test.
type namedFabric struct {
	name string
	f    Fabric
}

// testFabrics builds one of each Fabric over cfg: the mesh, the DA2mesh
// overlay and the ideal fabric.
func testFabrics(t *testing.T, cfg Config) []namedFabric {
	t.Helper()
	mesh, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	overlay, err := NewDA2Mesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := NewIdealFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []namedFabric{{"Network", mesh}, {"DA2Mesh", overlay}, {"IdealFabric", ideal}}
}

// TestInjectRejectsInvalidPackets: every fabric validates a packet before it
// keeps any of it — a packet with no size, more flits than a flit's seq can
// index, or a destination outside the mesh panics at Inject instead of
// being delivered to a node that does not exist or failing later in Step.
func TestInjectRejectsInvalidPackets(t *testing.T) {
	cfg := testConfig(t, nil)
	nodes := cfg.Mesh.Nodes()
	for _, c := range []struct {
		name string
		pkt  Packet
	}{
		{"no size", Packet{Type: ReadReply, Dst: 3}},
		{"too many flits", Packet{Type: ReadReply, Dst: 3, Size: maxPacketFlits + 1}},
		{"negative destination", Packet{Type: ReadReply, Dst: -1, Size: 1}},
		{"destination beyond the mesh", Packet{Type: ReadReply, Dst: nodes, Size: 1}},
	} {
		for i, name := range []string{"Network", "DA2Mesh", "IdealFabric"} {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				f, pkt := testFabrics(t, cfg)[i].f, c.pkt
				defer func() {
					if recover() == nil {
						t.Fatalf("Inject accepted %+v", pkt)
					}
					if f.InFlight() != 0 {
						t.Fatalf("%d packets in flight after a refused Inject", f.InFlight())
					}
				}()
				f.Inject(0, &pkt)
			})
		}
	}
}

// lifecycleRecorder is a Tracer keeping every event per packet.
type lifecycleRecorder struct {
	events map[uint64][]tracedEvent
}

type tracedEvent struct {
	node  int
	stage TraceStage
	cycle int64
}

func (r *lifecycleRecorder) PacketEvent(id uint64, _ PacketType, _, _, node int, stage TraceStage, cycle int64) {
	r.events[id] = append(r.events[id], tracedEvent{node, stage, cycle})
}

// TestTracerLifecycleOnEveryFabric drives each fabric with the same random
// traffic and a tracer sampling every third packet. Every sampled accepted
// packet must record enqueue -> inject -> ... -> eject, with cycles never
// decreasing, enqueue and inject at its source and eject at its
// destination; between inject and eject the mesh records a VA grant and a
// switch traversal per router, the overlay one switch event (arrival at the
// ejection queue) and the ideal fabric nothing. Unsampled packets record
// nothing.
func TestTracerLifecycleOnEveryFabric(t *testing.T) {
	const sample = 3
	cfg := testConfig(t, func(c *Config) {
		c.Routing = RouteMinAdaptive
		c.Nodes = make([]NodeConfig, c.Mesh.Nodes())
		for i := 0; i < c.Mesh.Nodes(); i += 5 {
			c.Nodes[i] = NodeConfig{NI: NISplit, InjSpeedup: 2}
		}
	})
	for _, fab := range testFabrics(t, cfg) {
		t.Run(fab.name, func(t *testing.T) {
			rec := &lifecycleRecorder{events: make(map[uint64][]tracedEvent)}
			fab.f.SetTracer(rec, sample)
			delivered := make(map[uint64]bool)
			fab.f.SetEjectHandler(func(node int, pkt *Packet, now int64) { delivered[pkt.ID] = true })
			r := rng.New(5)
			accepted := make(map[uint64]*Packet)
			nodes := cfg.Mesh.Nodes()
			for c := 0; c < 600; c++ {
				for s := 0; s < nodes; s++ {
					if r.Intn(4) != 0 {
						continue
					}
					typ := []PacketType{ReadRequest, ReadReply}[r.Intn(2)]
					pkt := mkPacket(cfg, typ, r.Intn(nodes))
					if fab.f.Inject(s, pkt) {
						accepted[pkt.ID] = pkt
					}
				}
				fab.f.Step()
			}
			for c := 0; c < 5000 && fab.f.InFlight() > 0; c++ {
				fab.f.Step()
			}
			if fab.f.InFlight() != 0 {
				t.Fatalf("%d packets still in flight", fab.f.InFlight())
			}

			sampled := 0
			for id, pkt := range accepted {
				ev := rec.events[id]
				if id%sample != 0 {
					if len(ev) != 0 {
						t.Fatalf("unsampled packet %d traced: %v", id, ev)
					}
					continue
				}
				sampled++
				if !delivered[id] {
					t.Fatalf("packet %d never delivered", id)
				}
				if len(ev) < 3 || ev[0].stage != TraceNIEnqueue || ev[1].stage != TraceInject || ev[len(ev)-1].stage != TraceEject {
					t.Fatalf("packet %d: lifecycle %v, want enqueue, inject, ..., eject", id, ev)
				}
				if ev[0].node != pkt.Src || ev[1].node != pkt.Src || ev[len(ev)-1].node != pkt.Dst {
					t.Fatalf("packet %d (%d->%d): events at the wrong nodes %v", id, pkt.Src, pkt.Dst, ev)
				}
				for i := 1; i < len(ev); i++ {
					if ev[i].cycle < ev[i-1].cycle {
						t.Fatalf("packet %d: cycle decreases at event %d: %v", id, i, ev)
					}
				}
				hops := ev[2 : len(ev)-1]
				switch fab.name {
				case "Network":
					if len(hops) == 0 || len(hops)%2 != 0 {
						t.Fatalf("packet %d: mesh hops %v, want VA grant + switch pairs", id, hops)
					}
					for i, h := range hops {
						if want := []TraceStage{TraceVAGrant, TraceSwitch}[i%2]; h.stage != want {
							t.Fatalf("packet %d: hop event %d is %v, want %v", id, i, h.stage, want)
						}
					}
					if last := hops[len(hops)-1]; last.node != pkt.Dst {
						t.Fatalf("packet %d: last switch at node %d, want %d", id, last.node, pkt.Dst)
					}
				case "DA2Mesh":
					if len(hops) != 1 || hops[0].stage != TraceSwitch || hops[0].node != pkt.Dst {
						t.Fatalf("packet %d: overlay hops %v, want one switch at %d", id, hops, pkt.Dst)
					}
				case "IdealFabric":
					if len(hops) != 0 {
						t.Fatalf("packet %d: ideal hops %v, want none", id, hops)
					}
				}
			}
			if sampled < 50 {
				t.Fatalf("only %d sampled packets", sampled)
			}
		})
	}
}
