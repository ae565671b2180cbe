// Command ariexp regenerates the paper's tables and figures and renders them
// as a Markdown report (one section per figure).
//
// Usage:
//
//	ariexp -fig 11                # one figure (-list prints the ids)
//	ariexp -fig all > report.md   # everything, in paper order
//	ariexp -csv results_csv       # ... and every figure's table as CSV
//	ariexp -fig slo -bench srad   # traced figures run on the first benchmark
//	ariexp -fig 11 -cycles 20000  # longer measurement window
//	ariexp -quick                 # fast smoke pass (short horizons)
//	ariexp -v                     # per-run progress
//	ariexp -bench bfs,srad        # restrict the suite to a benchmark subset
//	ariexp -journal runs.jsonl    # resume an interrupted pass from a journal
//	ariexp -timeout 5m            # fail any single run exceeding 5 minutes
//
// Every simulation executes under the harness watchdogs: a run that stops
// making forward progress fails with a diagnostic dump instead of hanging
// the whole figure pass, and a -journal'd pass that is killed resumes
// without recomputing finished runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/trace"
)

// sanitize maps a figure id to a filesystem-safe name.
func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, id)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ariexp:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, regenerates the requested
// figures and writes them to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ariexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "figure id or 'all'")
		cycles  = fs.Int64("cycles", 10000, "measured NoC cycles per run")
		warmup  = fs.Int64("warmup", 3000, "warmup NoC cycles per run")
		quick   = fs.Bool("quick", false, "short horizons for a smoke pass")
		verbose = fs.Bool("v", false, "print per-run progress")
		workers = fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		seed    = fs.Uint64("seed", 1, "simulation seed")
		csvDir  = fs.String("csv", "", "also write each figure's table as CSV into this directory")
		list    = fs.Bool("list", false, "list figure ids and exit")
		bench   = fs.String("bench", "", "comma-separated benchmark subset (default: full suite)")
		journal = fs.String("journal", "", "JSONL result journal; an interrupted pass resumes from it")
		timeout = fs.Duration("timeout", 0, "per-run wall-time limit (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range exp.Registry() {
			fmt.Fprintln(stdout, e.ID)
		}
		return nil
	}

	r := exp.NewRunner()
	r.Base.MeasureCycles = *cycles
	r.Base.WarmupCycles = *warmup
	r.Base.Seed = *seed
	r.Workers = *workers
	r.RunTimeout = *timeout
	if *quick {
		r.Base.MeasureCycles = 3000
		r.Base.WarmupCycles = 1000
	}
	if *verbose {
		r.Progress = stderr
	}
	if *bench != "" {
		var subset []trace.Kernel
		for _, name := range strings.Split(*bench, ",") {
			k, err := trace.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			subset = append(subset, k)
		}
		r.Benchmarks = subset
	}
	if *journal != "" {
		j, err := exp.OpenJournal(*journal)
		if err != nil {
			return err
		}
		defer j.Close()
		r.Journal = j
		if j.Loaded() > 0 {
			fmt.Fprintf(stderr, "ariexp: resuming, %d runs journalled in %s\n", j.Loaded(), j.Path())
		}
	}

	fmt.Fprintf(stdout, "# ARI reproduction report\n\n%d measured + %d warmup NoC cycles per run, seed %d.\n\n",
		r.Base.MeasureCycles, r.Base.WarmupCycles, r.Base.Seed)
	start := time.Now()
	ids := []string{*fig}
	if *fig == "all" {
		ids = ids[:0]
		for _, e := range exp.Registry() {
			ids = append(ids, e.ID)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, id := range ids {
		f, err := exp.Generate(r, id)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, f.String())
		if *csvDir != "" && f.Table != nil {
			path := filepath.Join(*csvDir, "fig_"+sanitize(id)+".csv")
			if err := os.WriteFile(path, []byte(f.Table.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	// The wall time goes to stderr, so the report on stdout is a pure
	// function of the flags (experiments_full.txt is diffed whole).
	fmt.Fprintf(stdout, "---\n\n%d simulations.\n", r.Runs())
	fmt.Fprintf(stderr, "ariexp: %d simulations in %s\n", r.Runs(), time.Since(start).Round(time.Millisecond))
	return nil
}
