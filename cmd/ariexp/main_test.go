package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/trace"
)

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "3", "decompose", "11", "area"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if line == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("figure list missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-fig", "nosuchfigure"},
		{"-bench", "nosuchbench", "-fig", "3"},
		{"-nosuchflag"},
	} {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunTinyFigure(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-fig", "3", "-quick", "-bench", "bfs", "-cycles", "300", "-warmup", "100"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	got := out.String()
	for _, want := range []string{"bfs", "simulations"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunCPUProfile: -cpuprofile writes a CPU profile of the figure runs and
// leaves the report as it is without the flag.
func TestRunCPUProfile(t *testing.T) {
	args := []string{"-fig", "3", "-quick", "-bench", "bfs", "-cycles", "300", "-warmup", "100"}
	var plain, profiled, errb bytes.Buffer
	if err := run(args, &plain, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := run(append(args, "-cpuprofile", path), &profiled, &errb); err != nil {
		t.Fatalf("run with -cpuprofile: %v\nstderr: %s", err, errb.String())
	}
	if profiled.String() != plain.String() {
		t.Fatalf("-cpuprofile changed the report:\n%s\nwant\n%s", profiled.String(), plain.String())
	}
	// A profile is gzip-compressed protobuf.
	if b, err := os.ReadFile(path); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile %s: %d bytes, err %v; want a gzip stream", path, len(b), err)
	}
}

// TestRunDecomposeCSV: the traced figure runs through ariexp's registry and
// writes the same CSV as exp.Decompose at the same horizons.
func TestRunDecomposeCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-fig", "decompose", "-quick", "-bench", "bfs", "-csv", dir}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig_decompose.csv"))
	if err != nil {
		t.Fatal(err)
	}
	r := exp.NewRunner()
	r.Base.MeasureCycles, r.Base.WarmupCycles = 3000, 1000 // -quick
	f, err := exp.Decompose(r, "bfs", 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := f.Table.CSV(); string(got) != want {
		t.Fatalf("fig_decompose.csv:\n%s\nwant exp.Decompose's:\n%s", got, want)
	}
}

// TestRunFigureCostLines: each figure's cost — simulations run, jobs the
// store answered, wall and CPU seconds — goes to stderr as one line, in
// figure order, and stdout stays the report alone: it equals the figures
// rendered by a fresh runner on the same flags (answered from the run's
// journal, whose results round-trip exactly, but for the observed decompose
// and sizing runs, which always simulate), and its last line is the total.
func TestRunFigureCostLines(t *testing.T) {
	var out, errb bytes.Buffer
	journal := filepath.Join(t.TempDir(), "runs.jsonl")
	args := []string{"-fig", "all", "-bench", "bfs", "-cycles", "200", "-warmup", "100", "-journal", journal}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}

	j, err := exp.OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r := exp.NewRunner()
	r.Journal = j
	r.Base.MeasureCycles, r.Base.WarmupCycles = 200, 100
	bfs, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	r.Benchmarks = []trace.Kernel{bfs}
	var want strings.Builder
	fmt.Fprintf(&want, "# ARI reproduction report\n\n%d measured + %d warmup NoC cycles per run, seed %d.\n\n",
		r.Base.MeasureCycles, r.Base.WarmupCycles, r.Base.Seed)
	for _, e := range exp.Registry() {
		f, err := exp.Generate(r, e.ID)
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(f.String())
	}
	if observed := 4 + len(r.Benchmarks); r.Runs() != observed {
		t.Fatalf("the journal left %d runs to simulate again, want the %d observed ones", r.Runs(), observed)
	}

	lines := strings.Split(strings.TrimSuffix(errb.String(), "\n"), "\n")
	reg := exp.Registry()
	if len(lines) != len(reg)+1 {
		t.Fatalf("%d stderr lines for %d figures:\n%s", len(lines), len(reg), errb.String())
	}
	cost := regexp.MustCompile(`^ariexp: fig (\S+): (\d+) simulations, (\d+) store hits, \d+\.\d\d s wall, \d+\.\d\d s CPU$`)
	sims := 0
	for i, e := range reg {
		m := cost.FindStringSubmatch(lines[i])
		if m == nil || m[1] != e.ID {
			t.Fatalf("stderr line %d %q is not figure %s's cost line", i, lines[i], e.ID)
		}
		n, _ := strconv.Atoi(m[2])
		sims += n
	}
	if total := fmt.Sprintf("ariexp: %d simulations in ", sims); !strings.HasPrefix(lines[len(reg)], total) {
		t.Fatalf("last stderr line %q, want the total %q...", lines[len(reg)], total)
	}
	if sims < j.Loaded() {
		t.Fatalf("%d simulations stored %d results", sims, j.Loaded())
	}
	fmt.Fprintf(&want, "---\n\n%d simulations.\n", sims)
	if out.String() != want.String() {
		t.Fatalf("stdout is not the report:\n%s\nwant:\n%s", out.String(), want.String())
	}
}
