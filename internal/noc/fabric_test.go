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
// keeps any of it — a packet with no size, more flits than a VC holds (one
// long packet) or a flit's seq can index, or a destination outside the mesh
// panics at Inject instead of being delivered to a node that does not exist
// or failing later in Step.
func TestInjectRejectsInvalidPackets(t *testing.T) {
	cfg := testConfig(t, nil)
	nodes := cfg.Mesh.Nodes()
	for _, c := range []struct {
		name string
		pkt  Packet
	}{
		{"no size", Packet{Type: ReadReply, Dst: 3}},
		{"longer than a VC", Packet{Type: ReadReply, Dst: 3, Size: cfg.LongPacketFlits() + 1}},
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

// lifecycleRecorder is a Tracer keeping a copy of every packet it sees and
// the cycle it saw it at.
type lifecycleRecorder struct {
	f    Fabric
	seen map[uint64]Packet
	at   map[uint64]int64
	dups int
}

func (r *lifecycleRecorder) Delivered(pkt *Packet) {
	if _, ok := r.seen[pkt.ID]; ok {
		r.dups++
	}
	r.seen[pkt.ID], r.at[pkt.ID] = *pkt, r.f.Now()
}

// TestTracerLifecycleOnEveryFabric drives each fabric with the same random
// traffic and a tracer sampling every third packet. Every sampled packet
// must reach the tracer exactly once, at its delivery and before the eject
// handler, with CreatedAt <= InjectedAt <= ArrivedAt <= EjectedAt and the
// fabric's own floor between the stamps: on the mesh at least hops + 1
// cycles of transit and size cycles of ejection, on the overlay the lane's
// serialisation plus hops of transit, and on the ideal fabric arrival at
// injection. Unsampled packets never reach it.
func TestTracerLifecycleOnEveryFabric(t *testing.T) {
	const sample = 3
	cfg := testConfig(t, func(c *Config) {
		c.Routing = RouteMinAdaptive
		c.MCNodes, c.MC = everyKth(c.Mesh, 5), NodeConfig{NI: NISplit, InjSpeedup: 2}
	})
	for _, fab := range testFabrics(t, cfg) {
		t.Run(fab.name, func(t *testing.T) {
			rec := &lifecycleRecorder{f: fab.f, seen: make(map[uint64]Packet), at: make(map[uint64]int64)}
			fab.f.SetTracer(rec, sample)
			delivered := make(map[uint64]bool)
			fab.f.SetEjectHandler(func(node int, pkt *Packet, now int64) {
				delivered[pkt.ID] = true
				if _, ok := rec.seen[pkt.ID]; ok != (pkt.ID%sample == 0) {
					t.Errorf("packet %d reached the handler traced=%v", pkt.ID, ok)
				}
			})
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
			if rec.dups != 0 {
				t.Fatalf("%d packets traced twice", rec.dups)
			}

			sampled := 0
			for id, pkt := range accepted {
				p, ok := rec.seen[id]
				if id%sample != 0 {
					if ok {
						t.Fatalf("unsampled packet %d traced", id)
					}
					continue
				}
				sampled++
				if !ok || !delivered[id] {
					t.Fatalf("packet %d: traced %v, delivered %v", id, ok, delivered[id])
				}
				if p.Src != pkt.Src || p.Dst != pkt.Dst || rec.at[id] != p.EjectedAt {
					t.Fatalf("packet %d: traced %d->%d at %d, sent %d->%d, ejected at %d", id, p.Src, p.Dst, rec.at[id], pkt.Src, pkt.Dst, p.EjectedAt)
				}
				if !(p.CreatedAt <= p.InjectedAt && p.InjectedAt <= p.ArrivedAt && p.ArrivedAt <= p.EjectedAt) {
					t.Fatalf("packet %d: stamps out of order: created %d, injected %d, arrived %d, ejected %d",
						id, p.CreatedAt, p.InjectedAt, p.ArrivedAt, p.EjectedAt)
				}
				hops, size := int64(cfg.Mesh.Hops(p.Src, p.Dst)), int64(p.Size)
				var transit, eject int64 // the fabric's floors
				switch fab.name {
				case "Network":
					transit, eject = hops+1, size
				case "DA2Mesh":
					transit = size - 1 + hops
				case "IdealFabric":
					if p.ArrivedAt != p.InjectedAt {
						t.Fatalf("packet %d: ideal arrival %d, want the injection cycle %d", id, p.ArrivedAt, p.InjectedAt)
					}
				}
				if p.ArrivedAt-p.InjectedAt < transit || p.EjectedAt-p.ArrivedAt < eject {
					t.Fatalf("packet %d (%d hops, %d flits): transit %d, ejection %d, below the floors %d, %d",
						id, hops, size, p.ArrivedAt-p.InjectedAt, p.EjectedAt-p.ArrivedAt, transit, eject)
				}
			}
			if sampled < 50 {
				t.Fatalf("only %d sampled packets", sampled)
			}
		})
	}
}
