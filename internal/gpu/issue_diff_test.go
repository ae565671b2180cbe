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
// early-out, no compute burst, issueScan tries every warp struct, holding or
// not, and its LSU re-evaluates a stalled head load every tick (its lsuStall
// memo is cleared before each one).

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
// come back as replies after latency(txn) ticks.
type diffRig struct {
	core     *Core
	reject   bool
	now      int
	latency  func(txn *mem.Transaction) int
	inFlight []*mem.Transaction
	due      []int
	// replies counts the replies delivered in the last tick.
	replies int
}

// hashedLatency derives a reply delay of 4..40 ticks from the transaction ID.
func hashedLatency(txn *mem.Transaction) int { return 4 + int(txn.ID*2654435761%37) }

func newDiffRig(t *testing.T, cfg Config, wl Workload, latency func(*mem.Transaction) int) *diffRig {
	r := &diffRig{latency: latency}
	c, err := NewCore(3, 7, cfg, wl, func(txn *mem.Transaction) bool {
		if r.reject {
			return false
		}
		r.inFlight = append(r.inFlight, txn)
		r.due = append(r.due, r.now+r.latency(txn))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	r.core = c
	return r
}

func (r *diffRig) tick(now int, reject, scan bool) {
	r.now, r.reject, r.replies = now, reject, 0
	keptT, keptD := r.inFlight[:0], r.due[:0]
	for i, txn := range r.inFlight {
		if r.due[i] <= now {
			r.core.ReceiveReply(txn)
			r.replies++
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

// effectiveWarp is warp w as the reference core keeps it: the current
// warp's computeLeft includes the burst run moved out of it.
func effectiveWarp(c *Core, w int) warp {
	wp := c.warps[w]
	if w == c.current {
		wp.computeLeft += c.run
	}
	return wp
}

// checkMasks recounts the ready and holding masks and readyWarps from the
// warp array, and checks that only a ready warp out of compute holds an
// instruction and that a burst runs only on a ready warp with an empty LSU
// queue.
func checkMasks(c *Core) error {
	if c.run > 0 && (len(c.lsuQ) > 0 || c.warps[c.current].state != warpReady || c.warps[c.current].computeLeft != 0) {
		return fmt.Errorf("burst of %d on warp %+v with %d LSU ops queued", c.run, c.warps[c.current], len(c.lsuQ))
	}
	ready := 0
	for w := range c.warps {
		wp := effectiveWarp(c, w)
		isReady := wp.state == warpReady
		if got := c.ready[w>>6]>>(w&63)&1 != 0; got != isReady {
			return fmt.Errorf("warp %d: ready bit %v, state %d", w, got, wp.state)
		}
		if len(c.held[w]) > 0 && !(isReady && wp.initialised && wp.computeLeft == 0) {
			return fmt.Errorf("warp %d holds %d addresses, warp %+v", w, len(c.held[w]), wp)
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

// compareCores fails unless fast and ref agree after a tick: counters,
// greedy warp, queues, each warp's effective state and held instruction,
// and the workload calls the tick made (both logs are then cleared).
func compareCores(t *testing.T, name func() string, fast, ref *Core, fastLog, refLog *[]wlCall) {
	t.Helper()
	if a, b := coreCounters(fast), coreCounters(ref); a != b {
		t.Fatalf("%s: counters %v, reference %v", name(), a, b)
	}
	if ref.run != 0 {
		t.Fatalf("%s: the reference core took a burst of %d", name(), ref.run)
	}
	if fast.current != ref.current || len(fast.lsuQ) != len(ref.lsuQ) || fast.outstandingStores != ref.outstandingStores {
		t.Fatalf("%s: current/lsuQ/stores %d/%d/%d, reference %d/%d/%d", name(),
			fast.current, len(fast.lsuQ), fast.outstandingStores,
			ref.current, len(ref.lsuQ), ref.outstandingStores)
	}
	for w := range fast.warps {
		if a, b := effectiveWarp(fast, w), ref.warps[w]; a != b || !slices.Equal(fast.held[w], ref.held[w]) {
			t.Fatalf("%s: warp %d %+v holding %x, reference %+v holding %x", name(), w, a, fast.held[w], b, ref.held[w])
		}
	}
	if len(*fastLog) != len(*refLog) {
		t.Fatalf("%s: %d workload calls, reference %d", name(), len(*fastLog), len(*refLog))
	}
	for i, call := range *fastLog {
		if call != (*refLog)[i] {
			t.Fatalf("%s: workload call %d is %+v, reference %+v", name(), i, call, (*refLog)[i])
		}
	}
	*fastLog, *refLog = (*fastLog)[:0], (*refLog)[:0]
	for _, c := range []*Core{fast, ref} {
		if err := checkMasks(c); err != nil {
			t.Fatalf("%s: %v", name(), err)
		}
	}
}

func TestIssueStageMatchesScanReference(t *testing.T) {
	const ticks = 50000
	var total [10]uint64 // counters summed over the matrix: no path left cold
	skips, memos, bursts := 0, 0, 0
	for _, lsuCap := range []int{1, 4, 8} {
		for _, warps := range []int{1, 48, 65} {
			cfg := DefaultConfig()
			cfg.LSUQueueCap, cfg.WarpsPerCore = lsuCap, warps
			// Small enough that MSHR and store-queue stalls occur too.
			cfg.MSHREntries, cfg.MSHRWaiters, cfg.StoreQueueCap = 4, 2, 6
			fastWL, refWL := &diffWorkload{src: *rng.New(99)}, &diffWorkload{src: *rng.New(99)}
			fast, ref := newDiffRig(t, cfg, fastWL, hashedLatency), newDiffRig(t, cfg, refWL, hashedLatency)

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
				if fast.core.run > 0 {
					bursts++
				}
				fast.tick(now, burst > 0, false)
				ref.tick(now, burst > 0, true)

				name := func() string { return fmt.Sprintf("lsu %d warps %d tick %d", lsuCap, warps, now) }
				compareCores(t, name, fast.core, ref.core, &fastWL.log, &refWL.log)
				for _, held := range fast.core.held {
					if len(held) > 0 {
						retries++ // carried into the next tick
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
	if skips == 0 || memos == 0 || bursts == 0 {
		t.Fatalf("gates never taken: %d holding skips, %d memoised MSHR stalls, %d burst ticks", skips, memos, bursts)
	}
}

// memDraw is one scripted memory instruction.
type memDraw struct {
	write bool
	addrs []uint64
}

// playWorkload answers the i-th NextCompute call with computes[i] and the
// i-th NextMem call with mems[i], logging each call like diffWorkload. Once
// a script runs out, compute runs are long and memory instructions load
// fresh lines.
type playWorkload struct {
	computes []int
	mems     []memDraw
	nc, nm   int
	log      []wlCall
}

func (p *playWorkload) NextCompute(core, warp int) int {
	n := 1 << 10
	if p.nc < len(p.computes) {
		n = p.computes[p.nc]
	}
	p.nc++
	p.log = append(p.log, wlCall{warp: warp, n: n})
	return n
}

func (p *playWorkload) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	d := memDraw{addrs: []uint64{uint64(p.nm+1) << 12}}
	if p.nm < len(p.mems) {
		d = p.mems[p.nm]
	}
	p.nm++
	var base uint64
	if len(d.addrs) > 0 {
		base = d.addrs[0]
	}
	p.log = append(p.log, wlCall{mem: true, warp: warp, n: len(d.addrs), write: d.write, base: base})
	return d.write, append(scratch, d.addrs...)
}

// TestComputeBurstMatchesScanReference scripts the events around a compute
// burst that the random matrix above meets only by chance: a reply landing
// mid-burst, the LSU queue draining to empty under the current warp's
// compute, ResetStats mid-burst, and a compute-only memory instruction (a
// replayed trace's tail record) ending one burst and starting the next. Each
// case must also show its event happened.
func TestComputeBurstMatchesScanReference(t *testing.T) {
	// seen describes one tick of the fast core: its burst run and LSU queue
	// before the tick, and the rig and workload calls after it.
	type seen struct {
		runBefore, lsuBefore int
		rig                  *diffRig
		calls                []wlCall
	}
	for _, tc := range []struct {
		name     string
		warps    int
		computes []int
		mems     []memDraw
		reject   func(now int) bool // the sink refuses sends at these ticks
		reset    int                // ResetStats on both cores before this tick, if positive
		event    func(s seen) bool
	}{
		{
			// Warp 0 loads and waits; warp 1 bursts while the fill lands.
			name: "reply mid-burst", warps: 2,
			computes: []int{0, 3, 20},
			event:    func(s seen) bool { return s.runBefore > 0 && s.rig.replies > 0 },
		},
		{
			// A four-line store drains one line a tick (two refused sends in
			// between) while the warp computes; the burst starts only once
			// the queue is empty.
			name: "LSU drains under compute", warps: 1,
			computes: []int{0, 30},
			mems:     []memDraw{{write: true, addrs: []uint64{0x1000, 0x2000, 0x3000, 0x4000}}},
			reject:   func(now int) bool { return now == 2 || now == 3 },
			event: func(s seen) bool {
				return s.runBefore == 0 && s.lsuBefore > 0 && len(s.rig.core.lsuQ) == 0 && s.rig.core.run > 0
			},
		},
		{
			name: "ResetStats mid-burst", warps: 1,
			computes: []int{40}, reset: 10,
			event: func(s seen) bool { return s.rig.now == 10 && s.runBefore > 0 },
		},
		{
			// The burst of 10 ends in a memory instruction with no
			// transactions, which issues as compute and hands off the next run.
			name: "compute-only tail record", warps: 1,
			computes: []int{10, 8, 5},
			mems:     []memDraw{{}, {addrs: []uint64{0x5000}}},
			event: func(s seen) bool {
				for _, c := range s.calls {
					if c.mem && c.n == 0 {
						return s.runBefore == 0 && s.rig.core.run > 0
					}
				}
				return false
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCoreConfig()
			cfg.WarpsPerCore = tc.warps
			latency := func(*mem.Transaction) int { return 6 }
			fastWL := &playWorkload{computes: tc.computes, mems: tc.mems}
			refWL := &playWorkload{computes: tc.computes, mems: tc.mems}
			fast, ref := newDiffRig(t, cfg, fastWL, latency), newDiffRig(t, cfg, refWL, latency)
			happened, bursts := false, 0
			for now := 0; now < 120; now++ {
				if now == tc.reset {
					fast.core.ResetStats()
					ref.core.ResetStats()
				}
				reject := tc.reject != nil && tc.reject(now)
				s := seen{runBefore: fast.core.run, lsuBefore: len(fast.core.lsuQ), rig: fast}
				if s.runBefore > 0 {
					bursts++
				}
				fast.tick(now, reject, false)
				ref.tick(now, reject, true)
				s.calls = fastWL.log
				happened = happened || tc.event(s)
				compareCores(t, func() string { return fmt.Sprintf("tick %d", now) }, fast.core, ref.core, &fastWL.log, &refWL.log)
			}
			if !happened || bursts == 0 {
				t.Fatalf("the script never produced its event (%v) or a burst tick (%d)", happened, bursts)
			}
		})
	}
}
