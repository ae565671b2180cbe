package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/trace"
)

// buildSims constructs one simulator per job; it is part of set-up.
func (e *env) buildSims() ([]*core.Simulator, error) {
	sims := make([]*core.Simulator, len(e.jobs))
	for i, j := range e.jobs {
		t0 := time.Now()
		s, err := core.NewSimulator(j.Cfg, j.Kernel)
		if err != nil {
			return nil, fmt.Errorf("new simulator %s/%s: %w", j.Kernel.Name, j.Cfg.Scheme, err)
		}
		e.rec.add("core.new_sim_ms", ms(time.Since(t0)))
		sims[i] = s
	}
	return sims, nil
}

// simPhase is the arisim user's path: each job once, serially, through
// RunChecked. Only the run is timed; construction was set-up.
func (e *env) simPhase(sims []*core.Simulator) {
	for i, sim := range sims {
		t0 := time.Now()
		res, err := sim.RunChecked(core.CheckOptions{})
		e.simTimes[i] = append(e.simTimes[i], time.Since(t0).Seconds())
		sim.Close()
		sims[i] = nil // let the next collection have it before the later phases
		e.checkResult(i, "sim", res, err)
	}
}

// simKcyclesPerSec is the total simulated kilo-cycles of the job list over
// the sum of each job's median host seconds across the rounds.
func (e *env) simKcyclesPerSec() float64 {
	var secs float64
	for _, ts := range e.simTimes {
		secs += median(ts)
	}
	return e.cycles() / 1000 / secs
}

// stepTimes is the host time the shadow stepper spent in each of the four
// phases of a step.
type stepTimes struct {
	cores, mcs, req, rep time.Duration
}

func (t stepTimes) total() time.Duration { return t.cores + t.mcs + t.req + t.rep }

// shadowTotals is what a shadow run and the run it shadows must agree on.
type shadowTotals struct {
	Instructions uint64
	RepliesSent  uint64
	MCStallTime  int64
	Req, Rep     noc.NetStats
}

func totalsOf(sim *core.Simulator) shadowTotals {
	var t shadowTotals
	for _, c := range sim.Cores() {
		t.Instructions += c.Instructions
	}
	for _, mc := range sim.MCs() {
		t.RepliesSent += mc.RepliesSent
		t.MCStallTime += mc.StallTime
	}
	t.Req, t.Rep = *sim.RequestNet().Stats(), *sim.ReplyNet().Stats()
	return t
}

func totalsOfResult(r core.Result) shadowTotals {
	return shadowTotals{r.Instructions, r.RepliesSent, r.MCStallTime, r.Req, r.Rep}
}

// shadowStep advances sim by cycles NoC cycles with the benchmark's own
// copy of the serial branch of Simulator.Step over public accessors, with
// a clock read around each of the four phases. chunk, when non-nil, is
// called every 1000 cycles with that chunk's wall time.
//
// It must stay in step with core.Simulator.Step (sharding, fault injectors
// and the sampler are off in every workload, so they have no counterpart
// here); TestShadowStepMatchesSimulatorStep and every traced run check it.
func shadowStep(sim *core.Simulator, coreClk, memClk *timing.Clock, from, cycles int64, chunk func(time.Duration)) stepTimes {
	cores, mcs := sim.Cores(), sim.MCs()
	req, rep := sim.RequestNet(), sim.ReplyNet()
	var st stepTimes
	chunkStart := time.Now()
	for cycle := from; cycle < from+cycles; cycle++ {
		t0 := time.Now()
		coreTicks, memTicks := coreClk.Tick(), memClk.Tick()
		for t := 0; t < coreTicks; t++ {
			for _, c := range cores {
				c.Tick()
			}
		}
		t1 := time.Now()
		for _, mc := range mcs {
			if !mc.Quiescent() {
				mc.Tick(cycle, memTicks)
			} else {
				mc.SkipIdle(memTicks)
			}
		}
		t2 := time.Now()
		req.Step()
		t3 := time.Now()
		rep.Step()
		t4 := time.Now()
		st.cores += t1.Sub(t0)
		st.mcs += t2.Sub(t1)
		st.req += t3.Sub(t2)
		st.rep += t4.Sub(t3)
		if chunk != nil && (cycle+1-from)%1000 == 0 {
			chunk(t4.Sub(chunkStart))
			chunkStart = t4
		}
	}
	return st
}

// resetShadowStats clears the measurement counters at the warmup boundary
// the way Simulator.RunChecked does, through public API only.
func resetShadowStats(sim *core.Simulator) {
	for _, c := range sim.Cores() {
		c.ResetStats()
	}
	for _, mc := range sim.MCs() {
		mc.StallTime, mc.BlockedCycle, mc.RepliesSent = 0, 0, 0
	}
	sim.RequestNet().ResetStats()
	sim.ReplyNet().(interface{ ResetStats() }).ResetStats()
}

// tracedSimPhase runs every job twice — plain RunChecked, then the shadow
// stepper — and requires the shadow's totals to equal the plain Result's.
func (e *env) tracedSimPhase(sims []*core.Simulator) {
	var plain, shadow time.Duration
	var st stepTimes
	var switchesReq, switchesRep, instrs, coreTicks, replies uint64
	var ms0, ms1 runtime.MemStats
	var allocBytes uint64

	for i, sim := range sims {
		j := e.jobs[i]
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		res, err := sim.RunChecked(core.CheckOptions{})
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		sim.Close()
		sims[i] = nil
		if !e.checkResult(i, "sim", res, err) {
			continue
		}
		plain += d
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc

		sh, err := core.NewSimulator(j.Cfg, j.Kernel)
		if err != nil {
			e.rec.check(false, "shadow %s/%s: %v", j.Kernel.Name, j.Cfg.Scheme, err)
			continue
		}
		coreClk := timing.NewClock(j.Cfg.CoreClockNum, j.Cfg.CoreClockDen)
		memClk := timing.NewClock(j.Cfg.MemClockNum, j.Cfg.MemClockDen)
		root := obs.StartSpan(obs.NewTraceID(), "", "core.shadow_run", "aribench")
		root.SetAttr("job", j.Kernel.Name+"/"+j.Cfg.Scheme.String())
		chunkSpan := obs.StartSpan(root.Trace, root.ID, "core.chunk", "aribench")
		chunk := func(d time.Duration) {
			e.rec.add("core.chunk_ms", ms(d))
			chunkSpan.End()
			e.rec.span(chunkSpan)
			chunkSpan = obs.StartSpan(root.Trace, root.ID, "core.chunk", "aribench")
		}
		t0 = time.Now()
		warm := shadowStep(sh, coreClk, memClk, 0, j.Cfg.WarmupCycles, chunk)
		resetShadowStats(sh)
		inflight0 := [2]int{sh.RequestNet().InFlight(), sh.ReplyNet().InFlight()}
		ticks0 := coreClk.Cycles()
		meas := shadowStep(sh, coreClk, memClk, j.Cfg.WarmupCycles, j.Cfg.MeasureCycles, chunk)
		shadow += time.Since(t0)
		got := totalsOf(sh)
		inflight1 := [2]int{sh.RequestNet().InFlight(), sh.ReplyNet().InFlight()}
		coreTicks += (coreClk.Cycles() - ticks0) * uint64(len(sh.Cores()))
		sh.Close()
		for _, p := range []struct {
			name string
			d    time.Duration
		}{{"gpu.tick", warm.cores + meas.cores}, {"mem.tick", warm.mcs + meas.mcs},
			{"noc.req_step", warm.req + meas.req}, {"noc.rep_step", warm.rep + meas.rep}} {
			root.SetAttr(p.name+"_ms", fmt.Sprintf("%.3f", ms(p.d)))
		}
		root.End()
		e.rec.span(root)

		e.rec.check(got == totalsOfResult(res), "shadow %s/%s: totals differ from RunChecked's Result", j.Kernel.Name, j.Cfg.Scheme)
		// Packet conservation per network over the measured window.
		for n, s := range []*noc.NetStats{&got.Req, &got.Rep} {
			var inj, ej uint64
			for t := range s.PacketsInjected {
				inj += s.PacketsInjected[t]
				ej += s.PacketsEjected[t]
			}
			e.rec.check(int64(inj)-int64(ej) == int64(inflight1[n]-inflight0[n]),
				"shadow %s/%s: net %d injected %d != ejected %d + in-flight growth %d", j.Kernel.Name, j.Cfg.Scheme, n, inj, ej, inflight1[n]-inflight0[n])
		}

		// Rates are per measured-window event, so only that window's time counts.
		st.cores += meas.cores
		st.mcs += meas.mcs
		st.req += meas.req
		st.rep += meas.rep
		switchesReq += got.Req.SwitchTraversals
		switchesRep += got.Rep.SwitchTraversals
		instrs += got.Instructions
		replies += got.RepliesSent
	}
	if plain == 0 || st.total() == 0 {
		return // every job failed; the checks above already say so
	}

	steps := float64(e.base.MeasureCycles) * float64(len(e.jobs))
	tot := float64(st.total())
	e.rec.add("gpu.tick_share", float64(st.cores)/tot)
	e.rec.add("mem.tick_share", float64(st.mcs)/tot)
	e.rec.add("noc.req_step_share", float64(st.req)/tot)
	e.rec.add("noc.rep_step_share", float64(st.rep)/tot)
	e.rec.add("noc.req_ns_per_switch", float64(st.req)/float64(max(switchesReq, 1)))
	e.rec.add("noc.rep_ns_per_switch", float64(st.rep)/float64(max(switchesRep, 1)))
	e.rec.add("noc.req_ns_per_step", float64(st.req)/steps)
	e.rec.add("noc.rep_ns_per_step", float64(st.rep)/steps)
	e.rec.add("gpu.ns_per_instr", float64(st.cores)/float64(max(instrs, 1)))
	e.rec.add("gpu.ns_per_tick", float64(st.cores)/float64(max(coreTicks, 1)))
	e.rec.add("mem.ns_per_reply", float64(st.mcs)/float64(max(replies, 1)))
	e.rec.add("core.alloc_bytes_per_kcycle", float64(allocBytes)/(e.cycles()/1000))
	e.rec.add("core.trace_overhead_pct", 100*(float64(shadow)/float64(plain)-1))
}

// layerDrivers times the three primitives under the SIMT core in
// isolation, on the workload's own kernels: the trace generator, its
// address stream replayed through a Table I L1, and the RNG.
func (e *env) layerDrivers() error {
	calls := 300000
	if e.opt.quick {
		calls = 20000
	}
	const nCores = 28
	var genTime, cacheTime time.Duration
	var genCalls, accesses int
	seen := map[string]bool{}
	var kernels []trace.Kernel
	for _, j := range e.jobs {
		if !seen[j.Kernel.Name] {
			seen[j.Kernel.Name] = true
			kernels = append(kernels, j.Kernel)
		}
	}
	per := calls / len(kernels)
	for _, k := range kernels {
		g, err := trace.NewGenerator(k, nCores, 1+e.opt.seed)
		if err != nil {
			return err
		}
		addrs := make([]uint64, 0, 4*per)
		writes := make([]bool, 0, 4*per)
		scratch := make([]uint64, 0, 8)
		t0 := time.Now()
		for n := 0; n < per; n++ {
			c := n % nCores
			w, as := g.NextMem(c, (n/nCores)%k.WarpsPerCore, scratch)
			for _, a := range as {
				addrs = append(addrs, a)
				writes = append(writes, w)
			}
		}
		genTime += time.Since(t0)
		genCalls += per

		l1 := cache.New(e.base.Core.L1)
		t0 = time.Now()
		for n, a := range addrs {
			l1.Access(a, writes[n])
		}
		cacheTime += time.Since(t0)
		accesses += len(addrs)
	}
	e.rec.add("trace.ns_per_nextmem", float64(genTime)/float64(genCalls))
	e.rec.add("cache.ns_per_access", float64(cacheTime)/float64(max(accesses, 1)))

	src := rng.New(1 + e.opt.seed)
	t0 := time.Now()
	for n := 0; n < 4*calls; n++ {
		rngSink ^= src.Uint64()
	}
	e.rec.add("rng.ns_per_uint64", float64(time.Since(t0))/float64(4*calls))
	return nil
}

// rngSink keeps the compiler from discarding the timed RNG loop.
var rngSink uint64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
