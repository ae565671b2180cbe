// Command arisweep sweeps one design parameter of the simulated system and
// prints IPC (and stall) across the sweep — the tool behind the paper's
// sensitivity studies (§7.5) and any ablation a user wants to run:
//
//	arisweep -param speedup -bench kmeans
//
// -param names a row of exp.Axes, the table the figures take their columns
// from and arisim its parameter flags: speedup, vcs, reqlink, replink, mesh,
// mcs, niqueue, starvation or priolevels.
//
// A local sweep is one exp.Runner dispatch, a job per point: the points run
// concurrently on the harness's worker pool, each under the forward-progress
// watchdogs (a deadlocked configuration fails with a diagnostic instead of
// hanging), -timeout bounds each run's wall time, and -journal makes an
// interrupted sweep resumable without recomputing finished points — except
// under -obs-interval, whose observed points always run and write their CSVs.
// The table is printed in point order once every point has finished.
// With -server, points are not simulated locally: each is submitted to a
// running ariserve instance through the retrying client, so shed requests
// (429), drains and even server restarts are ridden out transparently, and
// the server's journal deduplicates resubmitted points.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/trace"
)

// notFileSafe matches each rune a point label may not carry into a file name.
var notFileSafe = regexp.MustCompile(`[^A-Za-z0-9_-]`)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "arisweep:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, executes the sweep and
// writes the table to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("arisweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(exp.Axes))
	for i, a := range exp.Axes {
		names[i] = a.Name
	}
	var (
		param   = fs.String("param", "speedup", strings.Join(names, " | "))
		bench   = fs.String("bench", "bfs", "benchmark")
		scheme  = fs.String("scheme", "Ada-ARI", "scheme under sweep")
		cycles  = fs.Int64("cycles", 8000, "measured cycles")
		warmup  = fs.Int64("warmup", 2000, "warmup cycles")
		seed    = fs.Uint64("seed", 1, "seed")
		journal = fs.String("journal", "", "JSONL result journal; an interrupted sweep resumes from it")
		timeout = fs.Duration("timeout", 0, "per-run wall-time limit (0 = unlimited); with -server it becomes the job's timeout_ms and bounds the submission round trip")
		server  = fs.String("server", "", "ariserve base URL; points run remotely via the retrying client")

		obsInterval = fs.Int64("obs-interval", 0, "metrics sampling interval in NoC cycles for locally-run points (0 = off)")
		obsDir      = fs.String("obs-dir", ".", "directory for per-point metric CSVs (metrics_<label>.csv)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server != "" && (*journal != "" || *obsInterval > 0) {
		return errors.New("-journal and -obs-interval do not apply with -server: the server keeps the journal and the metrics")
	}

	kernel, err := trace.ByName(*bench)
	if err != nil {
		return err
	}
	sch, err := core.ParseScheme(*scheme)
	if err != nil {
		return err
	}

	base := core.DefaultConfig()
	base.Scheme = sch
	base.WarmupCycles = *warmup
	base.MeasureCycles = *cycles
	base.Seed = *seed

	ax, err := exp.AxisNamed(*param)
	if err != nil {
		return fmt.Errorf("-param: %w", err)
	}
	points := make([]exp.Point, len(ax.Values))
	cfgs := make([]core.Config, len(ax.Values))
	for i, v := range ax.Values {
		points[i] = ax.Point(v)
		cfgs[i] = base
		points[i].Edit(&cfgs[i])
	}

	var results []core.Result
	if *server != "" {
		cli := client.New(*server)
		for i := range cfgs {
			// -timeout becomes the job's watchdog deadline (TimeoutMs) and,
			// padded for queueing and retries, bounds the whole round trip: a
			// remote point cannot hang past its budget any more than a local one.
			req := serve.JobRequest{Bench: *bench, Config: &cfgs[i], TimeoutMs: timeout.Milliseconds()}
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if *timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, 4**timeout)
			}
			resp, err := cli.Submit(ctx, req)
			cancel()
			if err != nil {
				return err
			}
			results = append(results, resp.Result)
		}
	} else {
		runner := &exp.Runner{RunTimeout: *timeout}
		if *journal != "" {
			j, err := exp.OpenJournal(*journal)
			if err != nil {
				return err
			}
			defer j.Close()
			runner.Journal = j
			if j.Loaded() > 0 {
				fmt.Fprintf(stderr, "arisweep: resuming, %d runs journalled in %s\n", j.Loaded(), j.Path())
			}
		}
		// With -obs-interval every point is observed by its own registry.
		jobs := make([]exp.Job, len(cfgs))
		regs := make([]*obs.Registry, len(cfgs))
		for i := range cfgs {
			jobs[i] = exp.Job{Cfg: cfgs[i], Kernel: kernel}
			if *obsInterval > 0 {
				jobs[i].Observe = func(sim *core.Simulator) {
					regs[i] = obs.NewRegistry(*obsInterval)
					obs.AttachSimulator(regs[i], sim)
					regs[i].Reserve(int((base.WarmupCycles+base.MeasureCycles) / *obsInterval) + 2)
				}
			}
		}
		if results, err = runner.RunAll(jobs); err != nil {
			return err
		}
		for i, reg := range regs {
			if reg == nil {
				continue
			}
			var csv bytes.Buffer
			reg.WriteCSV(&csv) // a bytes.Buffer write cannot fail
			path := fmt.Sprintf("%s/metrics_%s.csv", *obsDir, notFileSafe.ReplaceAllString(points[i].Label, "_"))
			if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "arisweep: wrote %d metric samples to %s\n", reg.Samples(), path)
		}
	}

	fmt.Fprintf(stdout, "sweep %s on %s (%s), %d measured cycles\n\n", *param, *bench, sch, *cycles)
	fmt.Fprintf(stdout, "%-10s %10s %10s %14s %12s\n", *param, "IPC", "vs first", "stall/reply", "rep latency")
	for i, r := range results {
		stall := 0.0
		if r.RepliesSent > 0 {
			stall = float64(r.MCStallTime) / float64(r.RepliesSent)
		}
		fmt.Fprintf(stdout, "%-10s %10.3f %+9.1f%% %14.1f %12.1f\n",
			points[i].Label, r.IPC, 100*(r.IPC/results[0].IPC-1), stall,
			r.Rep.AvgLatency(noc.ReadReply, noc.WriteReply))
	}
	return nil
}
