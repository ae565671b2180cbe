package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/trace"
)

// A warp holds the memory instruction it drew until it issues (gpu.Core), so
// what the cores send is what the kernel asks for, whatever the congestion.

// TestRealisedCoalescingMatchesKernel: transactions per issued memory
// instruction match the mean of the generator's capped coalescing draw,
// 1+q+q²+q³ with q = (c-1)/c, on kernels that saturate the LSU queue as on
// one that does not. Dropping the instructions that do not fit lets only the
// narrow ones through under saturation (bfs read 1.04 against 1.73).
func TestRealisedCoalescingMatchesKernel(t *testing.T) {
	for _, name := range []string{"bfs", "kmeans", "mummerGPU", "histogram"} {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		q := (k.CoalesceMean - 1) / k.CoalesceMean
		want := 1 + q + q*q + q*q*q
		for _, scheme := range []Scheme{AdaBaseline, AdaARI} {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.WarmupCycles, cfg.MeasureCycles = 2000, 10000
			sim, err := NewSimulator(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			mustRun(t, sim)
			var txns, instrs uint64
			for _, c := range sim.Cores() {
				txns += c.LoadTxns + c.StoreTxns
				instrs += c.MemInstrs
			}
			got := float64(txns) / float64(instrs)
			t.Logf("%s/%s: %.3f transactions per memory instruction over %d, kernel mean %.3f", name, scheme, got, instrs, want)
			if math.Abs(got/want-1) > 0.08 {
				t.Errorf("%s/%s: %.3f transactions per memory instruction, kernel asks for %.3f", name, scheme, got, want)
			}
		}
	}
}

// traceRecord is one decoded record of the trace format (trace/replay.go).
type traceRecord struct {
	compute uint32
	flags   byte
	addrs   string // the raw address bytes
}

// decodeTrace splits a recorded trace into per-(core, warp) record lists.
func decodeTrace(t *testing.T, raw []byte) map[[2]uint16][]traceRecord {
	t.Helper()
	out := make(map[[2]uint16][]traceRecord)
	for p := raw[16:]; len(p) > 0; {
		n := 10 + 8*int(p[9])
		if len(p) < n {
			t.Fatalf("truncated trace record")
		}
		key := [2]uint16{binary.LittleEndian.Uint16(p[0:]), binary.LittleEndian.Uint16(p[2:])}
		out[key] = append(out[key], traceRecord{binary.LittleEndian.Uint32(p[4:]), p[8], string(p[10:n])})
		p = p[n:]
	}
	return out
}

// TestRecordedTraceIsSchemeIndependent: a warp's instruction stream depends
// on the kernel and the seed only, so the records of one warp under a slow
// scheme are a prefix of its records under a fast one. A record closed by the
// end of the run (compute-only tail) matches the compute half of its
// counterpart.
func TestRecordedTraceIsSchemeIndependent(t *testing.T) {
	k, _ := trace.ByName("bfs")
	xy := decodeTrace(t, recordRun(t, fastConfig(XYBaseline), k))
	ari := decodeTrace(t, recordRun(t, fastConfig(AdaARI), k))
	if len(xy) != len(ari) || len(xy) != 28*k.WarpsPerCore {
		t.Fatalf("%d and %d warps recorded, want %d", len(xy), len(ari), 28*k.WarpsPerCore)
	}
	differ := false
	for key, short := range xy {
		long := ari[key]
		if len(long) < len(short) {
			short, long = long, short
		}
		differ = differ || len(short) != len(long)
		for i, r := range short {
			// The last record of either list may be a tail.
			tail := (i == len(short)-1 && r.flags == 0 && r.addrs == "") ||
				(i == len(long)-1 && long[i].flags == 0 && long[i].addrs == "")
			if r != long[i] && !(tail && r.compute == long[i].compute) {
				t.Fatalf("core %d warp %d: record %d of %d is %+v under one scheme, %+v under the other",
					key[0], key[1], i, len(short), r, long[i])
			}
		}
	}
	if !differ {
		t.Fatal("both schemes recorded equally long streams for every warp; the test compares nothing")
	}
}

// issueCounter counts the memory instructions each (core, warp) issued: a
// NextCompute call after a NextMem means the instruction drawn there issued.
type issueCounter struct {
	trace.Workload
	warps  int
	drawn  []int // transactions of the instruction drawn and not yet issued
	issued []int
	over   int
	wide   int // issued instructions with more than `over` transactions
}

func (c *issueCounter) NextCompute(core, warp int) int {
	i := core*c.warps + warp
	if c.drawn[i] > 0 {
		c.issued[i]++
	}
	if c.drawn[i] > c.over {
		c.wide++
	}
	c.drawn[i] = 0
	return c.Workload.NextCompute(core, warp)
}

func (c *issueCounter) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	write, addrs := c.Workload.NextMem(core, warp, scratch)
	c.drawn[core*c.warps+warp] = len(addrs)
	return write, addrs
}

// eightWide is a workload whose every memory instruction has eight
// transactions, the trace format's cap; every fifth one is a store.
type eightWide struct{ n uint64 }

func (*eightWide) NextCompute(core, warp int) int { return 8 }
func (e *eightWide) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	e.n++
	for i := uint64(0); i < 8; i++ {
		scratch = append(scratch, (e.n*8+i)*128)
	}
	return e.n%5 == 0, scratch
}

// TestWideInstructionDoesNotWedge: an instruction with more transactions
// than the LSU queue holds (or a store wider than the store queue) cannot
// wait for room it will never get — it issues into the empty queue. With a
// two-entry LSU queue, both a divergent kernel and a replayed eight-address
// trace issue memory instructions on every warp, the wide ones among them,
// under the default watchdogs. (Few warps a core: wide instructions wait for
// the narrow ones of other warps, so at full occupancy a warp's first issue
// can take longer than a test should run.)
func TestWideInstructionDoesNotWedge(t *testing.T) {
	k, _ := trace.ByName("bfs")
	k.CoalesceMean, k.WarpsPerCore = 3, 4
	cfg := fastConfig(AdaBaseline)
	cfg.Core.LSUQueueCap, cfg.Core.StoreQueueCap = 2, 4
	cfg.MeasureCycles = 4000
	cores := cfg.MeshWidth*cfg.MeshHeight - cfg.NumMC
	warps := cores * k.WarpsPerCore

	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&eightWide{}, &buf, cores, k.WarpsPerCore)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*warps; i++ {
		rec.NextCompute(i%cores, i/cores%k.WarpsPerCore)
		rec.NextMem(i%cores, i/cores%k.WarpsPerCore, nil)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := trace.NewReplayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(k, cores, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []trace.Workload{gen, rep} {
		count := &issueCounter{Workload: w, warps: k.WarpsPerCore, over: cfg.Core.LSUQueueCap,
			drawn: make([]int, warps), issued: make([]int, warps)}
		sim, err := NewSimulatorWorkload(cfg, k, count)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunChecked(CheckOptions{}); err != nil {
			t.Fatalf("%T: %v", w, err)
		}
		for i, n := range count.issued {
			if n == 0 {
				t.Fatalf("%T: core %d warp %d issued no memory instruction in %d cycles",
					w, i/k.WarpsPerCore, i%k.WarpsPerCore, cfg.WarmupCycles+cfg.MeasureCycles)
			}
		}
		if count.wide < warps {
			t.Fatalf("%T: %d instructions wider than the LSU queue issued on %d warps", w, count.wide, warps)
		}
	}
}
