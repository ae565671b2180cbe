package gpu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// The issue stage against its own reference: a core stepped by Tick and one
// stepped by scanTick run one scripted workload side by side and must agree
// tick by tick — same counters, same greedy warp, same warp states and held
// instructions, and the same sequence of workload calls with the same
// results. The reference runs without the stage's fast paths: no idle
// early-out, issueScan tries every warp struct, holding or not, and its LSU
// re-evaluates a stalled head load every tick (its lsuStall memo is cleared
// before each one).

// scanTick is Tick as the reference runs it: the LSU steps and issueScan
// runs every tick, whatever the core's activity.
func (c *Core) scanTick() {
	c.CoreCycles++
	c.stepLSU()
	c.issueScan()
}

// issueScan is greedy-then-oldest issue with every warp struct visited and
// readiness read from the warp itself, instead of the ready and holding
// masks.
func (c *Core) issueScan() {
	if c.tryIssue(c.current) {
		return
	}
	for w := range c.warps {
		if w != c.current && c.tryIssue(w) {
			c.current = w
			return
		}
	}
	c.IssueStalls++
}

// wlCall is one logged workload call.
type wlCall struct {
	mem   bool
	warp  int
	n     int // compute length, or number of transactions
	write bool
	base  uint64
}

// diffWorkload draws every result from one stream shared by all warps, so
// any difference in the order or number of calls changes every later result.
type diffWorkload struct {
	src rng.Source
	log []wlCall
}

func (d *diffWorkload) NextCompute(core, warp int) int {
	n := [...]int{0, 0, 1, 2, 5, 17}[d.src.Intn(6)]
	d.log = append(d.log, wlCall{warp: warp, n: n})
	return n
}

func (d *diffWorkload) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	write := d.src.Bool(0.4)
	n := d.src.Intn(9) // 0: a degenerate instruction without transactions
	if n > 4 {
		n -= 4
	}
	// Few distinct lines, so loads also hit the L1 and merge in the MSHR.
	base := uint64(d.src.Intn(96)) * 128
	for i := 0; i < n; i++ {
		scratch = append(scratch, base+uint64(i)*128)
	}
	d.log = append(d.log, wlCall{mem: true, warp: warp, n: n, write: write, base: base})
	return write, scratch
}

// diffRig is one core with its request sink: transactions the sink accepts
// come back as replies after a delay derived from the transaction ID.
type diffRig struct {
	core     *Core
	wl       *diffWorkload
	reject   bool
	now      int
	inFlight []*mem.Transaction
	due      []int
}

func newDiffRig(t *testing.T, cfg Config) *diffRig {
	r := &diffRig{wl: &diffWorkload{src: *rng.New(99)}}
	c, err := NewCore(3, 7, cfg, r.wl, func(txn *mem.Transaction) bool {
		if r.reject {
			return false
		}
		r.inFlight = append(r.inFlight, txn)
		r.due = append(r.due, r.now+4+int(txn.ID*2654435761%37))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	r.core = c
	return r
}

func (r *diffRig) tick(now int, reject, scan bool) {
	r.now, r.reject = now, reject
	keptT, keptD := r.inFlight[:0], r.due[:0]
	for i, txn := range r.inFlight {
		if r.due[i] <= now {
			r.core.ReceiveReply(txn)
		} else {
			keptT, keptD = append(keptT, txn), append(keptD, r.due[i])
		}
	}
	r.inFlight, r.due = keptT, keptD
	if scan {
		r.core.lsuStall = noMSHRStall
		r.core.scanTick()
	} else {
		r.core.Tick()
	}
}

// checkMasks recounts the ready and holding masks and readyWarps from the
// warp array, and checks that only a ready warp out of compute holds an
// instruction.
func checkMasks(c *Core) error {
	ready := 0
	for w := range c.warps {
		wp := &c.warps[w]
		isReady := wp.state == warpReady
		if got := c.ready[w>>6]>>(w&63)&1 != 0; got != isReady {
			return fmt.Errorf("warp %d: ready bit %v, state %d", w, got, wp.state)
		}
		if len(c.held[w]) > 0 && !(isReady && wp.initialised && wp.computeLeft == 0) {
			return fmt.Errorf("warp %d holds %d addresses, warp %+v", w, len(c.held[w]), *wp)
		}
		if got := hasBit(c.holding, w); got != (len(c.held[w]) > 0) {
			return fmt.Errorf("warp %d: holding bit %v, %d addresses held", w, got, len(c.held[w]))
		}
		if isReady {
			ready++
		}
	}
	if ready != c.readyWarps {
		return fmt.Errorf("readyWarps %d, recounted %d", c.readyWarps, ready)
	}
	if n := len(c.warps); n&63 != 0 {
		if last := len(c.ready) - 1; c.ready[last]>>(n&63) != 0 {
			return fmt.Errorf("mask bits set beyond warp %d", n-1)
		}
	}
	return nil
}

func coreCounters(c *Core) [10]uint64 {
	return [10]uint64{c.Instructions, c.MemInstrs, c.LoadTxns, c.StoreTxns, c.IssueStalls,
		c.LSUSendStalls, c.MSHRStalls, c.StoreQStalls, c.CoreCycles, c.mshr.FullStall}
}

// gated reports whether a tick of c will take a retry gate: skip holding
// warps behind a full LSU queue, or replay a memoised MSHR stall.
func gated(c *Core) (skip, memo bool) {
	if len(c.lsuQ) >= c.cfg.LSUQueueCap {
		for _, m := range c.holding {
			skip = skip || m != 0
		}
	}
	return skip, c.lsuStall != noMSHRStall
}

func TestIssueStageMatchesScanReference(t *testing.T) {
	const ticks = 50000
	var total [10]uint64 // counters summed over the matrix: no path left cold
	skips, memos := 0, 0
	for _, lsuCap := range []int{1, 4, 8} {
		for _, warps := range []int{1, 48, 65} {
			cfg := DefaultConfig()
			cfg.LSUQueueCap, cfg.WarpsPerCore = lsuCap, warps
			// Small enough that MSHR and store-queue stalls occur too.
			cfg.MSHREntries, cfg.MSHRWaiters, cfg.StoreQueueCap = 4, 2, 6
			fast, ref := newDiffRig(t, cfg), newDiffRig(t, cfg)

			script := rng.New(uint64(100*lsuCap + warps))
			burst, retries := 0, 0
			for now := 0; now < ticks; now++ {
				// The sink rejects in bursts long enough for the LSU queue to
				// fill and every ready warp to run out of compute.
				if burst > 0 {
					burst--
				} else if script.Intn(60) == 0 {
					burst = 1 + script.Intn(400)
				}
				skip, memo := gated(fast.core)
				if skip {
					skips++
				}
				if memo {
					memos++
				}
				fast.tick(now, burst > 0, false)
				ref.tick(now, burst > 0, true)

				name := func() string { return fmt.Sprintf("lsu %d warps %d tick %d", lsuCap, warps, now) }
				if a, b := coreCounters(fast.core), coreCounters(ref.core); a != b {
					t.Fatalf("%s: counters %v, reference %v", name(), a, b)
				}
				if fast.core.current != ref.core.current ||
					len(fast.core.lsuQ) != len(ref.core.lsuQ) ||
					fast.core.outstandingStores != ref.core.outstandingStores {
					t.Fatalf("%s: current/lsuQ/stores %d/%d/%d, reference %d/%d/%d", name(),
						fast.core.current, len(fast.core.lsuQ), fast.core.outstandingStores,
						ref.core.current, len(ref.core.lsuQ), ref.core.outstandingStores)
				}
				for w := range fast.core.warps {
					if fast.core.warps[w] != ref.core.warps[w] || !slices.Equal(fast.core.held[w], ref.core.held[w]) {
						t.Fatalf("%s: warp %d %+v holding %x, reference %+v holding %x", name(), w,
							fast.core.warps[w], fast.core.held[w], ref.core.warps[w], ref.core.held[w])
					}
				}
				if len(fast.wl.log) != len(ref.wl.log) {
					t.Fatalf("%s: %d workload calls, reference %d", name(), len(fast.wl.log), len(ref.wl.log))
				}
				for i, call := range fast.wl.log {
					if call != ref.wl.log[i] {
						t.Fatalf("%s: workload call %d is %+v, reference %+v", name(), i, call, ref.wl.log[i])
					}
				}
				fast.wl.log, ref.wl.log = fast.wl.log[:0], ref.wl.log[:0]
				for _, held := range fast.core.held {
					if len(held) > 0 {
						retries++ // carried into the next tick
					}
				}
				for _, c := range []*Core{fast.core, ref.core} {
					if err := checkMasks(c); err != nil {
						t.Fatalf("%s: %v", name(), err)
					}
				}
			}
			if retries == 0 {
				t.Fatalf("lsu %d warps %d: no instruction was ever held over a tick", lsuCap, warps)
			}
			for i, v := range coreCounters(fast.core) {
				total[i] += v
			}
		}
	}
	for i, v := range total {
		if v == 0 {
			t.Fatalf("script left counter %d at zero over the whole matrix: %v", i, total)
		}
	}
	if skips == 0 || memos == 0 {
		t.Fatalf("gates never taken: %d holding skips, %d memoised MSHR stalls", skips, memos)
	}
}
