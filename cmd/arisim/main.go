// Command arisim runs one (benchmark, scheme) simulation and prints the
// detailed statistics: IPC, packet latencies, traffic mix, link utilisation,
// MC stall time and cache behaviour.
//
// Usage:
//
//	arisim -bench bfs -scheme Ada-ARI -cycles 20000 [-warmup 4000]
//	       [-mesh 6x6] [-mc 8] [-vcs 4] [-reqlink 128] [-replink 128]
//	       [-speedup 4] [-priolevels 2] [-seed 1] [-list]
//
// With -estimate, the analytical model (internal/analytic, DESIGN.md §12)
// answers in microseconds instead of running the simulation.
//
// Fault injection (DESIGN.md §13): -corrupt-prob and -link-death enable
// seeded flit corruption (recovered by CRC + NACK retransmission) and
// permanent link deaths (detoured by fault-adaptive routing).
//
// Observability (DESIGN.md §10):
//
//	arisim -bench bfs -obs-interval 100 -obs-out metrics.csv   # per-interval time series
//	arisim -bench bfs -trace-sample 16 -trace-out trace.json   # Chrome trace + latency decomposition
//	arisim -bench bfs -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	var (
		benchName = flag.String("bench", "bfs", "benchmark name (see -list)")
		schemeStr = flag.String("scheme", "Ada-ARI", "scheme: XY-Baseline, XY-ARI, Ada-Baseline, Ada-MultiPort, Ada-ARI, Acc-Supply, Acc-Consume, Acc-Both-NoPriority, DA2Mesh, DA2Mesh+ARI")
		cycles    = flag.Int64("cycles", 20000, "measured NoC cycles")
		warmup    = flag.Int64("warmup", 4000, "warmup NoC cycles")
		meshStr   = flag.String("mesh", "6x6", "mesh WxH")
		numMC     = flag.Int("mc", 8, "memory controllers")
		vcs       = flag.Int("vcs", 4, "virtual channels per port")
		reqLink   = flag.Int("reqlink", 128, "request-network link bits")
		repLink   = flag.Int("replink", 128, "reply-network link bits")
		speedup   = flag.Int("speedup", 4, "injection-port crossbar speedup")
		prio      = flag.Int("priolevels", 2, "ARI priority levels")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		record    = flag.String("record", "", "record the memory trace to this file")
		replay    = flag.String("replay", "", "replay a recorded memory trace from this file")
		confFile  = flag.String("config", "", "load the base configuration from a JSON file (flags still override)")
		dumpConf  = flag.Bool("dumpconfig", false, "print the effective configuration as JSON and exit")
		work      = flag.Uint64("work", 0, "fixed-work mode: measure until this many warp-instructions retire (0 = fixed horizon)")

		corruptProb = flag.Float64("corrupt-prob", 0, "per-cycle probability of a flit-corruption burst; > 0 enables fault injection and the NoC recovery layer (CRC + NACK retransmission)")
		linkDeath   = flag.Float64("link-death", 0, "per-cycle probability of a permanent link death; > 0 enables fault injection with fault-adaptive routing around dead links")
		heatmap     = flag.Bool("heatmap", false, "print per-node reply-network link/injection utilisation grids")
		estimate    = flag.Bool("estimate", false, "answer from the analytical model (internal/analytic) instead of simulating; microseconds instead of seconds")

		obsInterval = flag.Int64("obs-interval", 0, "metrics sampling interval in NoC cycles (0 = observability off)")
		obsOut      = flag.String("obs-out", "", "write the sampled metric time series as CSV to this file (requires -obs-interval)")
		traceSample = flag.Uint64("trace-sample", 0, "record every Nth packet's lifecycle on both fabrics (0 = off)")
		traceOut    = flag.String("trace-out", "", "write sampled packet lifetimes as Chrome trace_event JSON to this file (requires -trace-sample)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	if *memProfile != "" {
		// Record every allocation: at the default 512 KB sampling rate a
		// simulator's construction (under 1 MB) barely registers.
		runtime.MemProfileRate = 1
	}

	if *list {
		for _, k := range trace.Suite() {
			fmt.Printf("%-16s %s\n", k.Name, k.Sens)
		}
		return
	}

	scheme, err := parseScheme(*schemeStr)
	if err != nil {
		fatal(err)
	}
	kernel, err := trace.ByName(*benchName)
	if err != nil {
		fatal(err)
	}
	var w, h int
	if _, err := fmt.Sscanf(*meshStr, "%dx%d", &w, &h); err != nil {
		fatal(fmt.Errorf("bad -mesh %q: %w", *meshStr, err))
	}

	cfg := core.DefaultConfig()
	if *confFile != "" {
		data, err := os.ReadFile(*confFile)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *confFile, err))
		}
	}
	// Explicitly passed flags override the file; defaults do not.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	override := func(name string, apply func()) {
		if *confFile == "" || set[name] {
			apply()
		}
	}
	override("mesh", func() { cfg.MeshWidth, cfg.MeshHeight = w, h })
	override("mc", func() { cfg.NumMC = *numMC })
	override("vcs", func() { cfg.VCs = *vcs })
	override("reqlink", func() { cfg.ReqLinkBits = *reqLink })
	override("replink", func() { cfg.RepLinkBits = *repLink })
	override("scheme", func() { cfg.Scheme = scheme })
	override("speedup", func() { cfg.InjSpeedup = *speedup })
	override("priolevels", func() { cfg.PriorityLevels = *prio })
	override("seed", func() { cfg.Seed = *seed })
	override("warmup", func() { cfg.WarmupCycles = *warmup })
	override("cycles", func() { cfg.MeasureCycles = *cycles })
	override("corrupt-prob", func() {
		if *corruptProb > 0 {
			cfg.Fault.Enabled = true
			cfg.Fault.CorruptProb = *corruptProb
		}
	})
	override("link-death", func() {
		if *linkDeath > 0 {
			cfg.Fault.Enabled = true
			cfg.Fault.LinkDeathProb = *linkDeath
		}
	})

	if *dumpConf {
		out, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	if *estimate {
		est, err := analytic.EstimateOne(cfg, kernel)
		if err != nil {
			fatal(err)
		}
		printEstimate(est)
		return
	}

	workload, finish, err := buildWorkload(*record, *replay, cfg, kernel)
	if err != nil {
		fatal(err)
	}
	sim, err := core.NewSimulatorWorkload(cfg, kernel, workload)
	if err != nil {
		fatal(err)
	}
	defer sim.Close()

	var reg *obs.Registry
	if *obsInterval > 0 {
		reg = obs.NewRegistry(*obsInterval)
		obs.AttachSimulator(reg, sim)
		reg.Reserve(int((cfg.WarmupCycles+cfg.MeasureCycles) / *obsInterval) + 2)
	}
	var reqColl, repColl *obs.Collector
	if *traceSample > 0 {
		reqColl, repColl = obs.AttachTracers(sim, *traceSample)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// The checked loops with default watchdogs, as exp.Runner and ariserve
	// run them: a stuck simulation exits with its diagnostic instead of
	// spinning, and -cpuprofile sees the loop users pay for.
	var r core.Result
	if *work > 0 {
		r, err = sim.RunWorkChecked(*work, cfg.MeasureCycles*100, core.CheckOptions{})
	} else {
		r, err = sim.RunChecked(core.CheckOptions{})
	}
	if err != nil {
		fatal(err)
	}
	if finish != nil {
		if err := finish(); err != nil {
			fatal(err)
		}
	}
	printResult(r)
	if *heatmap {
		printHeatmap(sim, cfg)
	}
	if reg != nil {
		if err := writeMetricsCSV(reg, *obsOut); err != nil {
			fatal(err)
		}
	}
	if *traceSample > 0 {
		printDecomposition(reqColl, repColl)
		if *traceOut != "" {
			if err := writeChromeTrace(*traceOut, reqColl, repColl); err != nil {
				fatal(err)
			}
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// writeMetricsCSV dumps the sampled time series (to stdout when no path is
// given).
func writeMetricsCSV(reg *obs.Registry, path string) error {
	if path == "" {
		fmt.Printf("\nmetrics (%d samples every %d cycles):\n", reg.Samples(), reg.Interval())
		return reg.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d metric samples to %s\n", reg.Samples(), path)
	return nil
}

// printDecomposition prints the traced latency attribution per fabric — the
// paper's Fig. 2/3 split, from lifecycle samples instead of aggregates.
func printDecomposition(reqColl, repColl *obs.Collector) {
	fmt.Println("\ntraced latency decomposition (cycles, mean over sampled packets):")
	fmt.Printf("%-8s %8s %8s %8s %8s %8s %11s\n", "fabric", "packets", "queue", "network", "eject", "total", "queue share")
	for _, c := range []*obs.Collector{reqColl, repColl} {
		d := c.Decompose()
		fmt.Printf("%-8s %8d %8.1f %8.1f %8.1f %8.1f %10.1f%%\n",
			c.Label, d.Packets, d.Queue.Value(), d.Net.Value(), d.Eject.Value(),
			d.Total.Value(), 100*d.QueueFraction())
	}
}

// writeChromeTrace exports the sampled lifecycles for chrome://tracing.
func writeChromeTrace(path string, colls ...*obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, colls...); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s\n", path)
	return nil
}

// printHeatmap renders the reply network's per-node load: the summed mesh
// link flits/cycle leaving each router, and each NI's injection-link
// flits/cycle. The MC nodes light up on the injection grid while the mesh
// grid stays cool — the §3 observation made visible.
func printHeatmap(sim *core.Simulator, cfg core.Config) {
	rep, ok := sim.ReplyNet().(*noc.Network)
	if !ok {
		fmt.Println("\n(heatmap available only for mesh reply fabrics)")
		return
	}
	cycles := float64(rep.Stats().Cycles)
	if cycles == 0 {
		return
	}
	link := rep.LinkLoad()
	ni := rep.NILoad()
	isMC := map[int]bool{}
	for _, n := range sim.MCNodes() {
		isMC[n] = true
	}
	mark := func(node int) byte {
		if isMC[node] {
			return '*'
		}
		return ' '
	}
	fmt.Println("\nreply-network mesh-link load (flits/cycle out of each router; * = MC):")
	for y := 0; y < cfg.MeshHeight; y++ {
		for x := 0; x < cfg.MeshWidth; x++ {
			node := y*cfg.MeshWidth + x
			var total uint64
			for d := 0; d < 4; d++ {
				total += link[node][d]
			}
			fmt.Printf(" %5.2f%c", float64(total)/cycles, mark(node))
		}
		fmt.Println()
	}
	fmt.Println("\nreply-network injection-link load (flits/cycle from each NI):")
	for y := 0; y < cfg.MeshHeight; y++ {
		for x := 0; x < cfg.MeshWidth; x++ {
			node := y*cfg.MeshWidth + x
			fmt.Printf(" %5.2f%c", float64(ni[node])/cycles, mark(node))
		}
		fmt.Println()
	}
}

// buildWorkload wires the optional trace record/replay paths. It returns a
// nil workload (synthetic generation) when neither flag is set, and a
// finish hook to flush/close files.
func buildWorkload(record, replay string, cfg core.Config, kernel trace.Kernel) (trace.Workload, func() error, error) {
	switch {
	case record != "" && replay != "":
		return nil, nil, fmt.Errorf("-record and -replay are mutually exclusive")
	case replay != "":
		f, err := os.Open(replay)
		if err != nil {
			return nil, nil, err
		}
		rep, err := trace.NewReplayer(f)
		cerr := f.Close()
		if err != nil {
			return nil, nil, err
		}
		if cerr != nil {
			return nil, nil, cerr
		}
		cores, warps := rep.Shape()
		need := cfg.MeshWidth*cfg.MeshHeight - cfg.NumMC
		if cores != need || warps != kernel.WarpsPerCore {
			return nil, nil, fmt.Errorf("trace shape %dx%d does not match system %dx%d",
				cores, warps, need, kernel.WarpsPerCore)
		}
		return rep, nil, nil
	case record != "":
		cores := cfg.MeshWidth*cfg.MeshHeight - cfg.NumMC
		gen, err := trace.NewGenerator(kernel, cores, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		f, err := os.Create(record)
		if err != nil {
			return nil, nil, err
		}
		rec, err := trace.NewRecorder(gen, f, cores, kernel.WarpsPerCore)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		finish := func() error {
			if err := rec.Flush(); err != nil {
				f.Close()
				return err
			}
			fmt.Fprintf(os.Stderr, "recorded %d trace records to %s\n", rec.Records(), record)
			return f.Close()
		}
		return rec, finish, nil
	default:
		return nil, nil, nil
	}
}

func parseScheme(s string) (core.Scheme, error) {
	for sch := core.Scheme(0); int(sch) < core.NumSchemes; sch++ {
		if strings.EqualFold(sch.String(), s) {
			return sch, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

// printEstimate renders the analytical model's answer in the same shape as
// a simulated result, clearly labelled as an estimate.
func printEstimate(e analytic.Estimate) {
	fmt.Printf("benchmark        %s\n", e.Bench)
	fmt.Printf("scheme           %s\n", e.Scheme)
	fmt.Println("mode             analytical estimate (no simulation; see DESIGN.md §12 for error bands)")
	fmt.Printf("IPC              %.3f warp-instr/core-cycle (aggregate)\n", e.IPC)
	fmt.Println()
	fmt.Printf("request net:  avg pkt latency %.1f\n", e.ReqLatency)
	fmt.Printf("reply net:    avg pkt latency %.1f\n", e.RepLatency)
	fmt.Printf("MC turnaround    %.1f cycles\n", e.MCService)
	fmt.Printf("load round trip  %.1f cycles\n", e.RoundTrip)
	fmt.Printf("reply injection  %.4f pkt/cycle/MC (saturation %.4f%s)\n",
		e.RepInjRate, e.SaturationRate, map[bool]string{true: ", SATURATED", false: ""}[e.Saturated])
}

func printResult(r core.Result) {
	fmt.Printf("benchmark        %s\n", r.Benchmark)
	fmt.Printf("scheme           %s\n", r.Scheme)
	fmt.Printf("measured cycles  %d (NoC) / %d (core)\n", r.MeasuredCycles, r.CoreCycles)
	fmt.Printf("instructions     %d\n", r.Instructions)
	fmt.Printf("IPC              %.3f warp-instr/core-cycle (aggregate)\n", r.IPC)
	fmt.Println()
	fmt.Printf("request net:  avg pkt latency %.1f  link util %.4f  inj util %.4f\n",
		r.Req.AvgLatency(noc.ReadRequest, noc.WriteRequest), r.Req.MeshLinkUtil(), r.Req.InjLinkUtil())
	fmt.Printf("reply net:    avg pkt latency %.1f  link util %.4f  inj util %.4f\n",
		r.Rep.AvgLatency(noc.ReadReply, noc.WriteReply), r.Rep.MeshLinkUtil(), r.Rep.InjLinkUtil())
	fmt.Println()
	fmt.Printf("traffic mix (flit-weighted):")
	for t := noc.PacketType(0); int(t) < noc.NumPacketTypes; t++ {
		fmt.Printf("  %s %.1f%%", t, 100*flitShareBoth(&r, t))
	}
	fmt.Println()
	fmt.Printf("MC stall time    %d cycles (blocked %d)\n", r.MCStallTime, r.MCBlockedCycles)
	fmt.Printf("replies sent     %d\n", r.RepliesSent)
	fmt.Printf("NI occupancy     %.1f flits avg (cap %d)\n", r.NIOccAvgFlits, r.NIQueueCapFlits)
	fmt.Printf("L1 hit %.3f  L2 hit %.3f  DRAM row hit %.3f\n", r.L1HitRate, r.L2HitRate, r.DRAMRowHitRate)
	if r.FaultEvents > 0 || r.Recovery != (noc.RecoveryStats{}) {
		fmt.Println()
		fmt.Printf("faults injected  %d (dead links %d)\n", r.FaultEvents, r.Recovery.DeadLinks)
		fmt.Printf("recovery         %d corrupted pkts dropped+NACKed, %d retransmitted, %d buffer-full rejects\n",
			r.Recovery.CorruptPackets, r.Recovery.RetransPackets, r.Recovery.RetransBufFullRejects)
	}
}

// flitShareBoth computes a packet type's share of flits across the two
// networks combined, the paper's Fig 5 weighting.
func flitShareBoth(r *core.Result, t noc.PacketType) float64 {
	var total, mine uint64
	for i := 0; i < noc.NumPacketTypes; i++ {
		total += r.Req.FlitsInjected[i] + r.Rep.FlitsInjected[i]
	}
	mine = r.Req.FlitsInjected[t] + r.Rep.FlitsInjected[t]
	if total == 0 {
		return 0
	}
	return float64(mine) / float64(total)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arisim:", err)
	os.Exit(1)
}
