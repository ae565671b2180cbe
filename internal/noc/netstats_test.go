package noc

import (
	"testing"
)

// netstatsMix is the packet mix injected by the per-class counter tests:
// request classes from a compute-side node, reply classes from an MC-side
// node, covering all four packet types.
var netstatsMix = []struct {
	typ   PacketType
	node  int
	dst   int
	count int
}{
	{ReadRequest, 1, 14, 3},
	{WriteRequest, 2, 13, 2},
	{ReadReply, 13, 2, 4},
	{WriteReply, 14, 1, 1},
}

// injectMix drives the mix in, stepping between offers so NI queues never
// reject, and returns per-type injected counts.
func injectMix(t *testing.T, n *Network) [NumPacketTypes]uint64 {
	t.Helper()
	var want [NumPacketTypes]uint64
	for _, m := range netstatsMix {
		for i := 0; i < m.count; i++ {
			pkt := mkPacket(n.Config(), m.typ, m.dst)
			for !n.Inject(m.node, pkt) {
				n.Step()
			}
			want[m.typ]++
			n.Step()
		}
	}
	return want
}

// TestNetStatsPerClassCounters pins the per-packet-type accounting — the
// counters every figure's request-vs-reply split rests on — across all three
// NI architectures (baseline FIFO, ARI split queues, MultiPort).
func TestNetStatsPerClassCounters(t *testing.T) {
	for _, mode := range []struct {
		name string
		ni   NIMode
	}{
		{"NIBaseline", NIBaseline},
		{"NISplit", NISplit},
		{"NIMultiPort", NIMultiPort},
	} {
		t.Run(mode.name, func(t *testing.T) {
			n := newTestNet(t, func(c *Config) {
				c.MCNodes, c.MC.NI = everyKth(c.Mesh, 1), mode.ni
				if mode.ni == NIMultiPort {
					c.MC.InjPorts = 2
				}
			})
			want := injectMix(t, n)
			runUntilIdle(t, n, 5000)

			st := n.Stats()
			cfg := n.Config()
			var total uint64
			for typ := PacketType(0); int(typ) < NumPacketTypes; typ++ {
				total += want[typ]
				if st.PacketsInjected[typ] != want[typ] {
					t.Errorf("PacketsInjected[%s] = %d, want %d", typ, st.PacketsInjected[typ], want[typ])
				}
				if st.PacketsEjected[typ] != want[typ] {
					t.Errorf("PacketsEjected[%s] = %d, want %d", typ, st.PacketsEjected[typ], want[typ])
				}
				wantFlits := want[typ] * uint64(PacketSize(typ, cfg.LinkBits, cfg.DataBytes))
				if st.FlitsInjected[typ] != wantFlits {
					t.Errorf("FlitsInjected[%s] = %d, want %d", typ, st.FlitsInjected[typ], wantFlits)
				}
				if got := uint64(st.Latency[typ].Count()); got != want[typ] {
					t.Errorf("Latency[%s].Count = %d, want %d", typ, got, want[typ])
				}
				if want[typ] > 0 && st.Latency[typ].Value() <= 0 {
					t.Errorf("Latency[%s] mean = %v, want > 0", typ, st.Latency[typ].Value())
				}
			}
			if st.TotalPackets() != total {
				t.Errorf("TotalPackets = %d, want %d", st.TotalPackets(), total)
			}
			if n.InFlight() != 0 {
				t.Errorf("InFlight = %d after drain", n.InFlight())
			}
		})
	}
}

// TestNetStatsTracingIsObservationOnly asserts a sampling tracer changes no
// counter: the same mix with tracing on must produce identical NetStats and
// identical delivery, while the tracer itself sees every packet delivered.
func TestNetStatsTracingIsObservationOnly(t *testing.T) {
	run := func(tr Tracer) NetStats {
		n := newTestNet(t, nil)
		if tr != nil {
			n.SetTracer(tr, 1)
		}
		injectMix(t, n)
		runUntilIdle(t, n, 5000)
		return *n.Stats()
	}
	coll := &countingTracer{}
	plain := run(nil)
	traced := run(coll)
	if plain != traced {
		t.Errorf("NetStats diverged under tracing:\nplain  %+v\ntraced %+v", plain, traced)
	}
	var totalPkts uint64
	for _, m := range netstatsMix {
		totalPkts += uint64(m.count)
	}
	if coll.delivered != totalPkts {
		t.Errorf("tracer saw %d deliveries, want %d", coll.delivered, totalPkts)
	}
}

// countingTracer counts the packets it sees.
type countingTracer struct{ delivered uint64 }

func (c *countingTracer) Delivered(*Packet) { c.delivered++ }

// TestVAGrantCounter pins the new VA-grant accessor: one grant per
// packet-hop, and it lives outside NetStats so encoded results are
// unchanged.
func TestVAGrantCounter(t *testing.T) {
	n := newTestNet(t, nil)
	if n.VAGrants() != 0 {
		t.Fatalf("fresh network VAGrants = %d", n.VAGrants())
	}
	pkt := mkPacket(n.Config(), ReadReply, 15) // node 0 -> 15: 6 hops on a 4x4 XY mesh
	if !n.Inject(0, pkt) {
		t.Fatal("inject rejected")
	}
	runUntilIdle(t, n, 1000)
	if got := n.VAGrants(); got != 7 {
		// 6 mesh hops plus the re-allocation at the destination's router is
		// topology-dependent; at minimum one grant per traversed router.
		if got < 6 {
			t.Fatalf("VAGrants = %d, want >= 6 for a 6-hop route", got)
		}
	}
}
