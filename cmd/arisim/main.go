// Command arisim runs one (benchmark, scheme) simulation and prints the
// detailed statistics: IPC, packet latencies, traffic mix, link utilisation,
// MC stall time and cache behaviour.
//
// Usage:
//
//	arisim -bench bfs -scheme Ada-ARI -cycles 20000 [-warmup 4000] [-seed 1]
//	       [-config cfg.json] [-dumpconfig] [-list]
//	       [-speedup 4] [-vcs 4] [-reqlink 128] [-replink 128] [-mesh 6]
//	       [-mcs 8] [-niqueue 4] [-starvation 1000] [-priolevels 2]
//
// The parameter flags are the rows of exp.Axes, the table arisweep sweeps:
// each sets its parameter as arisweep's point for that value does (-mesh 8
// is an 8x8 mesh, -vcs caps the speedup at the VC count, -niqueue counts
// long reply packets). -config loads the base configuration; the flags the
// command line sets override it, the parameter flags in table order.
//
// With -estimate, the analytical model (internal/analytic, DESIGN.md §12)
// answers in microseconds instead of running the simulation.
//
// Observability (DESIGN.md §10):
//
//	arisim -bench bfs -obs-interval 100 -obs-out metrics.csv   # per-interval time series
//	arisim -bench bfs -trace-sample 16 -trace-out trace.json   # Chrome trace + latency decomposition
//	arisim -bench bfs -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "arisim:", err)
		os.Exit(1)
	}
}

// schemeList is -scheme's help: every label of the scheme table.
func schemeList() string {
	labels := make([]string, core.NumSchemes)
	for i := range labels {
		labels[i] = core.Scheme(i).String()
	}
	return strings.Join(labels, ", ")
}

// run is the testable entry point: it parses args, runs (or estimates) the
// simulation and prints its statistics to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("arisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := core.DefaultConfig()
	var (
		benchName = fs.String("bench", "bfs", "benchmark name (see -list)")
		schemeStr = fs.String("scheme", "Ada-ARI", "scheme: "+schemeList())
		cycles    = fs.Int64("cycles", def.MeasureCycles, "measured NoC cycles")
		warmup    = fs.Int64("warmup", def.WarmupCycles, "warmup NoC cycles")
		seed      = fs.Uint64("seed", def.Seed, "simulation seed")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		record    = fs.String("record", "", "record the memory trace to this file")
		replay    = fs.String("replay", "", "replay a recorded memory trace from this file")
		confFile  = fs.String("config", "", "load the base configuration from a JSON file (flags still override)")
		dumpConf  = fs.Bool("dumpconfig", false, "print the effective configuration as JSON and exit")
		work      = fs.Uint64("work", 0, "fixed-work mode: measure until this many warp-instructions retire (0 = fixed horizon)")
		heatmap   = fs.Bool("heatmap", false, "print per-node reply-network link/injection utilisation grids")
		estimate  = fs.Bool("estimate", false, "answer from the analytical model (internal/analytic) instead of simulating; microseconds instead of seconds")

		obsInterval = fs.Int64("obs-interval", 0, "metrics sampling interval in NoC cycles (0 = observability off)")
		obsOut      = fs.String("obs-out", "", "write the sampled metric time series as CSV to this file (requires -obs-interval)")
		traceSample = fs.Uint64("trace-sample", 0, "record every Nth packet's lifecycle on both fabrics (0 = off)")
		traceOut    = fs.String("trace-out", "", "write sampled packet lifetimes as Chrome trace_event JSON to this file (requires -trace-sample)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	axisVals := make([]*int, len(exp.Axes))
	for i, ax := range exp.Axes {
		vals := strings.Trim(fmt.Sprint(ax.Values), "[]")
		axisVals[i] = fs.Int(ax.Name, 0, fmt.Sprintf("set the parameter as arisweep -param %s does (it sweeps %s)", ax.Name, vals))
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *memProfile != "" {
		// Record every allocation: at the default 512 KB sampling rate a
		// simulator's construction (under 1 MB) barely registers.
		runtime.MemProfileRate = 1
	}

	if *list {
		for _, k := range trace.Suite() {
			fmt.Fprintf(stdout, "%-16s %s\n", k.Name, k.Sens)
		}
		return nil
	}

	scheme, err := core.ParseScheme(*schemeStr)
	if err != nil {
		return err
	}
	kernel, err := trace.ByName(*benchName)
	if err != nil {
		return err
	}

	// -config replaces Table I as the base; without it, -scheme's default
	// (Ada-ARI) applies too. Each flag the command line set then overrides
	// the base, the exp.Axes rows in table order.
	cfg := def
	if *confFile == "" {
		cfg.Scheme = scheme
	} else {
		data, err := os.ReadFile(*confFile)
		if err != nil {
			return err
		}
		// A field Config does not have is refused, not dropped: a file
		// naming an option the simulator lacks must not run without it.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return fmt.Errorf("parsing %s: %w", *confFile, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return fmt.Errorf("parsing %s: data after the configuration", *confFile)
		}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch f.Name {
		case "scheme":
			cfg.Scheme = scheme
		case "seed":
			cfg.Seed = *seed
		case "warmup":
			cfg.WarmupCycles = *warmup
		case "cycles":
			cfg.MeasureCycles = *cycles
		}
	})
	for i, ax := range exp.Axes {
		if set[ax.Name] {
			ax.Point(*axisVals[i]).Edit(&cfg)
		}
	}

	if *dumpConf {
		out, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
		return nil
	}

	if *estimate {
		est, err := analytic.EstimateOne(cfg, kernel)
		if err != nil {
			return err
		}
		printEstimate(stdout, est)
		return nil
	}

	// buildWorkload sizes the trace from cfg, so cfg is validated first.
	if err := cfg.Validate(); err != nil {
		return err
	}
	workload, finish, err := buildWorkload(stderr, *record, *replay, cfg, kernel)
	if err != nil {
		return err
	}
	sim, err := core.NewSimulatorWorkload(cfg, kernel, workload)
	if err != nil {
		return err
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
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
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
		return err
	}
	if finish != nil {
		if err := finish(); err != nil {
			return err
		}
	}
	printResult(stdout, r)
	if *heatmap {
		printHeatmap(stdout, sim, cfg)
	}
	if reg != nil {
		if err := writeMetricsCSV(stdout, stderr, reg, *obsOut); err != nil {
			return err
		}
	}
	if *traceSample > 0 {
		printDecomposition(stdout, reqColl, repColl)
		if *traceOut != "" {
			if err := writeTraceOut(stderr, *traceOut, reqColl, repColl); err != nil {
				return err
			}
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// writeMetricsCSV dumps the sampled time series (to stdout when no path is
// given).
func writeMetricsCSV(stdout, stderr io.Writer, reg *obs.Registry, path string) error {
	if path == "" {
		fmt.Fprintf(stdout, "\nmetrics (%d samples every %d cycles):\n", reg.Samples(), reg.Interval())
		return reg.WriteCSV(stdout)
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
	fmt.Fprintf(stderr, "wrote %d metric samples to %s\n", reg.Samples(), path)
	return nil
}

// printDecomposition prints the traced latency attribution per fabric — the
// paper's Fig. 2/3 split, from lifecycle samples instead of aggregates.
func printDecomposition(w io.Writer, reqColl, repColl *obs.Collector) {
	fmt.Fprintln(w, "\ntraced latency decomposition (cycles, mean over sampled packets):")
	fmt.Fprintf(w, "%-8s %8s %8s %8s %8s %8s %11s\n", "fabric", "packets", "queue", "network", "eject", "total", "queue share")
	for _, c := range []*obs.Collector{reqColl, repColl} {
		d := c.Decompose()
		fmt.Fprintf(w, "%-8s %8d %8.1f %8.1f %8.1f %8.1f %10.1f%%\n",
			c.Label, d.Packets, d.Queue.Value(), d.Net.Value(), d.Eject.Value(),
			d.Total.Value(), 100*d.QueueFraction())
	}
}

// writeTraceOut exports the sampled lifecycles as one trace of packet
// spans (one row per fabric, cycles read as microseconds), in the format
// ariserve's /debug/trace serves.
func writeTraceOut(stderr io.Writer, path string, colls ...*obs.Collector) error {
	id := obs.NewTraceID()
	var spans []obs.Span
	for _, c := range colls {
		spans = append(spans, obs.PacketSpans(c, id, "", "arisim", 0, 0)...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpanTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote Chrome trace to %s\n", path)
	return nil
}

// printHeatmap renders the reply network's per-node load: the summed mesh
// link flits/cycle leaving each router, and each NI's injection-link
// flits/cycle. The MC nodes light up on the injection grid while the mesh
// grid stays cool — the §3 observation made visible.
func printHeatmap(w io.Writer, sim *core.Simulator, cfg core.Config) {
	rep, ok := sim.ReplyNet().(*noc.Network)
	if !ok {
		fmt.Fprintln(w, "\n(heatmap available only for mesh reply fabrics)")
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
	fmt.Fprintln(w, "\nreply-network mesh-link load (flits/cycle out of each router; * = MC):")
	for y := 0; y < cfg.MeshHeight; y++ {
		for x := 0; x < cfg.MeshWidth; x++ {
			node := y*cfg.MeshWidth + x
			var total uint64
			for d := 0; d < 4; d++ {
				total += link[node][d]
			}
			fmt.Fprintf(w, " %5.2f%c", float64(total)/cycles, mark(node))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nreply-network injection-link load (flits/cycle from each NI):")
	for y := 0; y < cfg.MeshHeight; y++ {
		for x := 0; x < cfg.MeshWidth; x++ {
			node := y*cfg.MeshWidth + x
			fmt.Fprintf(w, " %5.2f%c", float64(ni[node])/cycles, mark(node))
		}
		fmt.Fprintln(w)
	}
}

// buildWorkload wires the optional trace record/replay paths. It returns a
// nil workload (synthetic generation) when neither flag is set, and a
// finish hook to flush/close files.
func buildWorkload(stderr io.Writer, record, replay string, cfg core.Config, kernel trace.Kernel) (trace.Workload, func() error, error) {
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
			fmt.Fprintf(stderr, "recorded %d trace records to %s\n", rec.Records(), record)
			return f.Close()
		}
		return rec, finish, nil
	default:
		return nil, nil, nil
	}
}

// printEstimate renders the analytical model's answer in the same shape as
// a simulated result, clearly labelled as an estimate.
func printEstimate(w io.Writer, e analytic.Estimate) {
	fmt.Fprintf(w, "benchmark        %s\n", e.Bench)
	fmt.Fprintf(w, "scheme           %s\n", e.Scheme)
	fmt.Fprintln(w, "mode             analytical estimate (no simulation; ariexp -fig analytic measures its error)")
	fmt.Fprintf(w, "IPC              %.3f warp-instr/core-cycle (aggregate)\n", e.IPC)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "request net:  avg pkt latency %.1f\n", e.ReqLatency)
	fmt.Fprintf(w, "reply net:    avg pkt latency %.1f\n", e.RepLatency)
	fmt.Fprintf(w, "MC turnaround    %.1f cycles\n", e.MCService)
	fmt.Fprintf(w, "load round trip  %.1f cycles\n", e.RoundTrip)
	fmt.Fprintf(w, "reply injection  %.4f pkt/cycle/MC (saturation %.4f%s)\n",
		e.RepInjRate, e.SaturationRate, map[bool]string{true: ", SATURATED", false: ""}[e.Saturated])
}

func printResult(w io.Writer, r core.Result) {
	fmt.Fprintf(w, "benchmark        %s\n", r.Benchmark)
	fmt.Fprintf(w, "scheme           %s\n", r.Scheme)
	fmt.Fprintf(w, "measured cycles  %d (NoC) / %d (core)\n", r.MeasuredCycles, r.CoreCycles)
	fmt.Fprintf(w, "instructions     %d\n", r.Instructions)
	fmt.Fprintf(w, "IPC              %.3f warp-instr/core-cycle (aggregate)\n", r.IPC)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "request net:  avg pkt latency %.1f  link util %.4f  inj util %.4f\n",
		r.Req.AvgLatency(noc.ReadRequest, noc.WriteRequest), r.Req.MeshLinkUtil(), r.Req.InjLinkUtil())
	fmt.Fprintf(w, "reply net:    avg pkt latency %.1f  link util %.4f  inj util %.4f\n",
		r.Rep.AvgLatency(noc.ReadReply, noc.WriteReply), r.Rep.MeshLinkUtil(), r.Rep.InjLinkUtil())
	fmt.Fprintln(w)
	fmt.Fprintf(w, "traffic mix (flit-weighted):")
	for t := noc.PacketType(0); int(t) < noc.NumPacketTypes; t++ {
		fmt.Fprintf(w, "  %s %.1f%%", t, 100*flitShareBoth(&r, t))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "MC stall time    %d cycles (blocked %d)\n", r.MCStallTime, r.MCBlockedCycles)
	fmt.Fprintf(w, "replies sent     %d\n", r.RepliesSent)
	fmt.Fprintf(w, "NI occupancy     %.1f flits avg (cap %d)\n", r.NIOccAvgFlits, r.NIQueueCapFlits)
	fmt.Fprintf(w, "L1 hit %.3f  L2 hit %.3f  DRAM row hit %.3f\n", r.L1HitRate, r.L2HitRate, r.DRAMRowHitRate)
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
