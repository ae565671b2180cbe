// Command benchmark measures the simulator, the sweep runner and the
// serving stack end to end (untraced pass) and layer by layer (traced
// pass). README.md has the metric and workload tables and the reasons.
//
// The driver's form runs one pass of one workload and ends with one JSON
// line:
//
//	benchmark --workload sim-low-load --seed 7 --seconds 20 --trace 0
//
// Without -workload and -trace together it orchestrates: every selected
// workload, untraced then traced, each in its own re-exec'd child process,
// collected into one report (-out).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run only this workload (default: all five)")
		seed     = fs.Uint64("seed", 1, "inputs are made from this seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", runSeconds, "how long one pass measures; rounds repeat until it is used up")
		trace    = fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (default: both)")
		quick    = fs.Bool("quick", false, "one small round per pass (smoke test sizes; no timing is meaningful)")
		out      = fs.String("out", "", "write the collected report to this file")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans as Chrome trace_event JSON (orchestrating: one file per workload)")
		expect   = fs.String("expect-digests", "", "fail unless result digests and exact metrics equal this earlier report's")
		compare  = fs.Bool("compare", false, "compare two sets of reports: -compare a1.json,a2.json b1.json,b2.json")
		printDef = fs.Bool("print-benchmark-json", false, "print BENCHMARK.json as generated from the metric tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	switch {
	case *printDef:
		stdout.Write(benchmarkJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two comma-separated lists of report files"))
		}
		if err := compareReports(stdout, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ",")); err != nil {
			return fail(err)
		}
		return 0
	case fs.NArg() != 0:
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	opt := options{seed: *seed, seconds: *seconds, quick: *quick}

	if set["workload"] && set["trace"] {
		// The driver's form.
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		opt.traced = *trace == 1
		res, err := runWorkload(w, opt, *traceOut)
		if err != nil {
			return fail(err)
		}
		res.print(stdout)
		if !res.Correct {
			return 1
		}
		return 0
	}

	sel := workloads
	if set["workload"] {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		sel = []workload{w}
	}
	passes := []int{0, 1}
	if set["trace"] {
		passes = []int{*trace}
	}
	rep, err := orchestrate(sel, passes, opt, *traceOut, stdout, stderr)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		b, _ := json.MarshalIndent(rep, "", " ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	code := 0
	for _, r := range rep.Runs {
		if !r.Correct {
			fmt.Fprintf(stdout, "FAILED %s trace=%d: %d of %d operations; %s\n", r.Workload, r.Trace, r.Failed, r.Attempted, strings.Join(r.Failures, "; "))
			code = 1
		}
	}
	if *expect != "" {
		if err := expectDigests(stdout, *expect, rep); err != nil {
			return fail(err)
		}
	}
	return code
}

// metricValue is one reported number. Samples and TailPct say what stands
// behind a median or a tail: how many samples, and which percentile the
// tail is (the highest with ten samples beyond it).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
}

// runResult is one pass of one workload.
type runResult struct {
	Workload     string                 `json:"workload"`
	Trace        int                    `json:"trace"`
	Seed         uint64                 `json:"seed"`
	Quick        bool                   `json:"quick,omitempty"`
	Jobs         int                    `json:"jobs"`
	Rounds       int                    `json:"rounds"`
	WallSeconds  float64                `json:"wall_s"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Failures     []string               `json:"failures,omitempty"`
	ResultDigest string                 `json:"result_digest"`
	Metrics      map[string]metricValue `json:"metrics"`
}

// hostInfo is the shape of the machine a report was taken on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runWorkload runs rounds of one pass until opt.seconds are used up and
// resolves every declared metric of that pass.
func runWorkload(w workload, opt options, traceOut string) (*runResult, error) {
	e, err := newEnv(w, opt)
	if err != nil {
		return nil, err
	}
	e.rec.keepSpans = opt.traced && traceOut != ""
	start := time.Now()
	rounds := 0
	for {
		t := time.Now()
		if err := e.round(); err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.Name, rounds, err)
		}
		rounds++
		// Another round only if at least half of it fits.
		if opt.quick || time.Since(start)+time.Since(t)/2 >= time.Duration(opt.seconds*float64(time.Second)) {
			break
		}
	}

	defs := endToEnd
	if opt.traced {
		defs = perLayer
		e.rec.add("core.chunks", float64(len(e.rec.samples["core.chunk_ms"]))/float64(rounds))
		e.rec.add("failed_share", float64(e.rec.failed)/float64(e.rec.attempted))
	} else {
		e.rec.add("sim_kcycles_per_s", e.simKcyclesPerSec())
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		e.rec.add("peak_rss_mb", rss)
	}
	res := &runResult{
		Workload: w.Name, Seed: opt.seed, Quick: opt.quick, Jobs: len(e.jobs), Rounds: rounds,
		WallSeconds: time.Since(start).Seconds(),
		Correct:     e.rec.failed == 0, Attempted: e.rec.attempted, Failed: e.rec.failed, Failures: e.rec.failures,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	if opt.traced {
		res.Trace = 1
	}
	res.ResultDigest, _ = e.digest()
	for _, d := range defs {
		v, n, pct, err := e.rec.value(d.Name)
		if err != nil {
			if e.rec.failed > 0 {
				err = fmt.Errorf("%w after failed operations: %s", err, strings.Join(e.rec.failures, "; "))
			}
			return nil, err
		}
		mv := metricValue{Value: v, Unit: d.Unit, TailPct: pct}
		if n > 1 {
			mv.Samples = n
		}
		res.Metrics[d.Name] = mv
	}
	if e.rec.keepSpans {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		err = obs.WriteSpanTrace(f, e.rec.spans)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("write %s: %w", traceOut, err)
		}
	}
	return res, nil
}

// round is one pass over the whole stack with the workload's job list:
// set-up (simulators, temp journals, listeners, /readyz), then the direct
// simulation, sweep and serving phases — or their traced counterparts.
func (e *env) round() error {
	dir, err := os.MkdirTemp("", "aribench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Set-up is timed setupReps times a round, so that setup_s is a median
	// of enough samples; only the last stack is kept and used.
	const setupReps = 3
	var sims []*core.Simulator
	var cl *servingCluster
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		sub := filepath.Join(dir, strconv.Itoa(rep))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return err
		}
		if sims, err = e.buildSims(); err != nil {
			return err
		}
		if cl, err = e.startCluster(sub); err != nil {
			return err
		}
		e.rec.add("setup_s", time.Since(t0).Seconds())
		if rep < setupReps-1 {
			cl.stop()
			for _, s := range sims {
				s.Close()
			}
			// Outside the timed window: the discarded stack must not sit in
			// the heap when the kept one is built, or peak_rss_mb would
			// depend on when the collector happens to run.
			sims, cl = nil, nil
			runtime.GC()
		}
	}
	defer cl.stop()

	// Each phase starts from a collected heap, so that one phase's garbage
	// is not marked on another phase's time.
	if !e.opt.traced {
		runtime.GC()
		e.simPhase(sims)
		runtime.GC()
		if err := e.sweepPhase(dir); err != nil {
			return err
		}
		runtime.GC()
		cl.coldPhase()
		return nil
	}
	runtime.GC()
	e.tracedSimPhase(sims)
	runtime.GC()
	if err := e.tracedSweepPhase(dir); err != nil {
		return err
	}
	if err := e.layerDrivers(); err != nil {
		return err
	}
	e.analyticLayer()
	e.simulatedStats()
	runtime.GC()
	return cl.tracedServePhases()
}

// peakRSSMB is this process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// print writes every metric by name with its unit, the "#report" line the
// orchestrator collects, and last the one JSON object the driver reads.
func (r *runResult) print(w io.Writer) {
	h := host()
	fmt.Fprintf(w, "workload %s trace=%d seed=%d jobs=%d rounds=%d wall=%.1fs nproc=%d GOMAXPROCS=%d cpu=%q %s\n",
		r.Workload, r.Trace, r.Seed, r.Jobs, r.Rounds, r.WallSeconds, h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion)
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		note := ""
		if m.TailPct > 0 {
			note = fmt.Sprintf("  (p%.0f of %d samples)", m.TailPct, m.Samples)
		} else if m.Samples > 0 {
			note = fmt.Sprintf("  (median of %d samples)", m.Samples)
		}
		if d.Exact {
			note += "  exact"
		}
		fmt.Fprintf(w, "  %-38s %14.6g %s%s\n", d.Name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "  result_digest %s\n  operations: %d attempted, %d failed\n", r.ResultDigest, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  failed:", f)
	}
	full, _ := json.Marshal(r)
	fmt.Fprintf(w, "#report %s\n", full)

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for k, m := range r.Metrics {
		last.Metrics[k] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(last)
	fmt.Fprintf(w, "%s\n", b)
}

// report is what the orchestrating form collects and -out writes.
type report struct {
	Schema  int          `json:"schema"`
	Seed    uint64       `json:"seed"`
	Seconds float64      `json:"seconds"`
	Quick   bool         `json:"quick,omitempty"`
	Host    hostInfo     `json:"host"`
	Runs    []*runResult `json:"runs"`
}

// orchestrate runs each (workload, pass) in its own child process, so that
// every one starts with a clean heap and its own VmHWM.
func orchestrate(sel []workload, passes []int, opt options, traceOut string, stdout, stderr io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := &report{Schema: 1, Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick, Host: host()}
	for _, w := range sel {
		for _, pass := range passes {
			args := []string{"-workload", w.Name, "-trace", strconv.Itoa(pass),
				"-seed", strconv.FormatUint(opt.seed, 10), "-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64)}
			if opt.quick {
				args = append(args, "-quick")
			}
			if traceOut != "" && pass == 1 {
				args = append(args, "-trace-out", strings.TrimSuffix(traceOut, ".json")+"."+w.Name+".json")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			pipe, err := cmd.StdoutPipe()
			if err != nil {
				return nil, err
			}
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			var res *runResult
			sc := bufio.NewScanner(pipe)
			sc.Buffer(nil, 1<<24)
			for sc.Scan() {
				line := sc.Text()
				if js, ok := strings.CutPrefix(line, "#report "); ok {
					res = new(runResult)
					if err := json.Unmarshal([]byte(js), res); err != nil {
						res = nil
					}
				} else if !strings.HasPrefix(line, "{") {
					fmt.Fprintln(stdout, line)
				}
			}
			werr := cmd.Wait()
			if res == nil {
				return nil, fmt.Errorf("%s trace=%d: no report (%v)", w.Name, pass, werr)
			}
			rep.Runs = append(rep.Runs, res)
		}
	}
	return rep, nil
}
