package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/trace"
)

// stallCounters are the retry and stall counters no encoded Result carries,
// so the digest matrix cannot see a skip gate that shifts one of them:
// sums over the cores, MSHRs, DRAM channels and the two meshes, plus an
// FNV-1a digest of every per-component value in node order.
type stallCounters struct {
	IssueStalls, MSHRStalls, StoreQStalls, LSUSendStalls, MSHRFullStall uint64
	DRAMBusy, DRAMQueueStalls                                           uint64
	ReqVAGrants, RepVAGrants                                            uint64
	Digest                                                              uint64
}

func readStallCounters(s *Simulator) stallCounters {
	var c stallCounters
	h := fnv.New64a()
	put := func(vs ...uint64) {
		for _, v := range vs {
			var b [8]byte
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	for _, cr := range s.cores {
		full := cr.MSHR().FullStall
		put(cr.IssueStalls, cr.MSHRStalls, cr.StoreQStalls, cr.LSUSendStalls, full)
		c.IssueStalls += cr.IssueStalls
		c.MSHRStalls += cr.MSHRStalls
		c.StoreQStalls += cr.StoreQStalls
		c.LSUSendStalls += cr.LSUSendStalls
		c.MSHRFullStall += full
	}
	for _, mc := range s.mcs {
		d := mc.DRAM()
		put(d.BusyCycles, d.QueueStalls)
		c.DRAMBusy += d.BusyCycles
		c.DRAMQueueStalls += d.QueueStalls
	}
	c.ReqVAGrants = s.reqNet.VAGrants()
	if mesh, ok := s.repNet.(*noc.Network); ok {
		c.RepVAGrants = mesh.VAGrants()
	}
	put(c.ReqVAGrants, c.RepVAGrants)
	c.Digest = h.Sum64()
	return c
}

// literal renders c as the Go literal of a counterGolden line.
func (c stallCounters) literal() string {
	return fmt.Sprintf("stallCounters{%d, %d, %d, %d, %d, %d, %d, %d, %d, %#x}",
		c.IssueStalls, c.MSHRStalls, c.StoreQStalls, c.LSUSendStalls, c.MSHRFullStall,
		c.DRAMBusy, c.DRAMQueueStalls, c.ReqVAGrants, c.RepVAGrants, c.Digest)
}

// counterGolden was recorded on the commit before the skip gates of the
// NoC allocators, the issue/LSU stages and the DRAM scheduler: every gate
// must skip only work whose outcome was already known, so every counter
// stays equal.
var counterGolden = []struct {
	run  string
	want stallCounters
}{
	{"bfs/XY-Baseline", stallCounters{83762, 91356, 0, 74, 0, 37632, 0, 22496, 17930, 0x62a6f9b46bcf412a}},
	{"bfs/Ada-Baseline", stallCounters{83421, 91353, 0, 44, 0, 38614, 0, 22893, 18159, 0x46d3415590db3102}},
	{"bfs/Ada-ARI", stallCounters{75421, 88428, 0, 206, 0, 54213, 0, 36998, 33260, 0x83e3e20493657657}},
	{"kmeans/XY-Baseline", stallCounters{74160, 83669, 1067, 7723, 0, 41666, 0, 21890, 18375, 0x59ad2f73f088ed97}},
	{"kmeans/Ada-Baseline", stallCounters{74371, 85206, 414, 6180, 0, 41344, 0, 21618, 18408, 0x54acc807d788e0c3}},
	{"kmeans/Ada-ARI", stallCounters{58741, 80523, 445, 8041, 0, 54748, 0, 36831, 33958, 0x707f49598e637f07}},
	{"transpose/XY-Baseline", stallCounters{0, 0, 0, 110, 0, 54021, 0, 22758, 22436, 0x5a02c55e2734ffb3}},
	{"transpose/Ada-Baseline", stallCounters{0, 0, 0, 102, 0, 53632, 0, 22648, 22370, 0xba00324742fbd2c6}},
	{"transpose/Ada-ARI", stallCounters{0, 0, 0, 144, 0, 53779, 0, 22740, 22493, 0xb204e856439c40e3}},
	{"bfs/Ada-ARI/chaos", stallCounters{84956, 24484, 0, 67442, 0, 41444, 0, 23366, 19988, 0x7568b483c79c349e}},
}

// TestStallCountersGolden runs bfs, kmeans and transpose under XY-Baseline,
// Ada-Baseline and Ada-ARI, plus bfs/Ada-ARI under fault.ChaosConfig, at
// 1000+3000 cycles with invariants checked every 64 cycles, and compares
// the counters with the recorded table. A deliberate re-record pastes the
// lines this test prints on mismatch.
func TestStallCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("ten 4k-cycle runs")
	}
	type run struct {
		name  string
		bench string
		cfg   Config
	}
	var runs []run
	for _, b := range []string{"bfs", "kmeans", "transpose"} {
		for _, s := range []Scheme{XYBaseline, AdaBaseline, AdaARI} {
			cfg := DefaultConfig()
			cfg.Scheme = s
			runs = append(runs, run{b + "/" + s.String(), b, cfg})
		}
	}
	chaos := DefaultConfig()
	chaos.Scheme = AdaARI
	chaos.Fault = fault.ChaosConfig(7)
	runs = append(runs, run{"bfs/Ada-ARI/chaos", "bfs", chaos})

	want := make(map[string]stallCounters)
	for _, g := range counterGolden {
		want[g.run] = g.want
	}
	for _, r := range runs {
		k, err := trace.ByName(r.bench)
		if err != nil {
			t.Fatal(err)
		}
		r.cfg.WarmupCycles, r.cfg.MeasureCycles = 1000, 3000
		sim, err := NewSimulator(r.cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunChecked(CheckOptions{InvariantEvery: 64}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got := readStallCounters(sim)
		if w, ok := want[r.name]; !ok || got != w {
			t.Errorf("%s: counters moved (recorded %+v); recomputed line:\n\t{%q, %s},", r.name, w, r.name, got.literal())
		}
	}
	if len(want) != len(runs) {
		t.Errorf("golden has %d runs, the test %d", len(want), len(runs))
	}
}
