package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-param", "nosuchparam"},
		{"-bench", "nosuchbench"},
		{"-scheme", "nosuchscheme"},
		{"-nosuchflag"},
	} {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// The fault-injection flags are gone: each is refused by name, even
	// with a value it took.
	for _, args := range [][]string{{"-corrupt-prob", "0.05"}, {"-link-death", "0.001"}} {
		err := run(append([]string{"-param", "vcs", "-cycles", "300", "-warmup", "100"}, args...), &out, &errb)
		if err == nil || !strings.Contains(err.Error(), args[0][1:]) {
			t.Errorf("run(%v): err = %v, want an unknown-flag error naming it", args, err)
		}
	}
	// A flag -server makes inert is refused by name.
	for _, flagName := range []string{"-journal", "-obs-interval"} {
		err := run([]string{"-server", "http://127.0.0.1:1", flagName, "1"}, &out, &errb)
		if err == nil || !strings.Contains(err.Error(), flagName) || !strings.Contains(err.Error(), "-server") {
			t.Errorf("%s with -server: err = %v, want a usage error naming both", flagName, err)
		}
	}
	// The unknown-parameter error lists what -param accepts.
	err := run([]string{"-param", "nosuchparam"}, &out, &errb)
	for _, a := range exp.Axes {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("unknown -param error %q does not name axis %s", err, a.Name)
		}
	}
}

// TestRunEveryAxis sweeps every row of exp.Axes and expects one table row
// per value, labelled and ordered as the axis labels it.
func TestRunEveryAxis(t *testing.T) {
	for _, ax := range exp.Axes {
		t.Run(ax.Name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := []string{"-param", ax.Name, "-bench", "bfs", "-cycles", "300", "-warmup", "100"}
			if err := run(args, &out, &errb); err != nil {
				t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if want := "sweep " + ax.Name + " on bfs"; !strings.HasPrefix(lines[0], want) {
				t.Errorf("title %q, want prefix %q", lines[0], want)
			}
			rows := lines[3:]
			if len(rows) != len(ax.Values) {
				t.Fatalf("%d rows for %d values:\n%s", len(rows), len(ax.Values), out.String())
			}
			for i, v := range ax.Values {
				if got, want := strings.Fields(rows[i])[0], ax.Point(v).Label; got != want {
					t.Errorf("row %d is labelled %q, want %q", i, got, want)
				}
			}
		})
	}
}

// TestRunPointMetricsMatchLoneRuns: with -obs-interval the points run
// concurrently on the worker pool, yet each point's CSV is exactly the one a
// lone instrumented simulator of that point's config writes.
func TestRunPointMetricsMatchLoneRuns(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-param", "speedup", "-bench", "bfs", "-cycles", "300", "-warmup", "100",
		"-obs-interval", "100", "-obs-dir", dir}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	want := []string{"metrics_S_1.csv", "metrics_S_2.csv", "metrics_S_3.csv", "metrics_S_4.csv"}
	if !slices.Equal(files, want) {
		t.Fatalf("obs dir holds %v, want %v", files, want)
	}

	kernel, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	speedup, err := exp.AxisNamed("speedup")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range speedup.Values {
		cfg := core.DefaultConfig()
		cfg.Scheme, cfg.WarmupCycles, cfg.MeasureCycles = core.AdaARI, 100, 300
		speedup.Point(v).Edit(&cfg)
		sim, err := core.NewSimulator(cfg, kernel)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry(100)
		obs.AttachSimulator(reg, sim)
		if _, err := sim.RunChecked(core.CheckOptions{}); err != nil {
			t.Fatal(err)
		}
		var lone bytes.Buffer
		if err := reg.WriteCSV(&lone); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, want[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, lone.Bytes()) {
			t.Errorf("%s differs from a lone run of S=%d", want[i], v)
		}
	}
}

// TestRunServerModeMatchesLocal runs the same sweep locally and against a
// job server: the sweep ships each point's full config, so the tables must
// be byte-identical regardless of the server's own base configuration.
func TestRunServerModeMatchesLocal(t *testing.T) {
	args := []string{"-param", "speedup", "-bench", "bfs", "-cycles", "300", "-warmup", "100"}
	var local, errb bytes.Buffer
	if err := run(args, &local, &errb); err != nil {
		t.Fatalf("local sweep: %v", err)
	}

	s, err := serve.New(serve.Config{Runner: exp.NewRunner()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	var remote, errb2 bytes.Buffer
	if err := run(append(args, "-server", ts.URL), &remote, &errb2); err != nil {
		t.Fatalf("server sweep: %v\nstderr: %s", err, errb2.String())
	}
	if local.String() != remote.String() {
		t.Fatalf("server-mode sweep diverged from local:\n%s\nvs\n%s", local.String(), remote.String())
	}
}

func TestRunJournalledSweepResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	args := []string{"-param", "vcs", "-bench", "bfs", "-cycles", "300", "-warmup", "100", "-journal", path}

	var out1, err1 bytes.Buffer
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	// Second invocation must replay entirely from the journal and print the
	// identical table.
	var out2, err2 bytes.Buffer
	if err := run(args, &out2, &err2); err != nil {
		t.Fatalf("second pass: %v", err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("journalled rerun diverged:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(err2.String(), "resuming") {
		t.Errorf("second pass did not report resuming:\n%s", err2.String())
	}

	// An observed point always runs: with -obs-interval every journalled
	// point is simulated again and writes its CSV, and the table is the same.
	dir := t.TempDir()
	var out3, err3 bytes.Buffer
	if err := run(append(args, "-obs-interval", "100", "-obs-dir", dir), &out3, &err3); err != nil {
		t.Fatalf("observed pass: %v", err)
	}
	if out3.String() != out1.String() {
		t.Fatalf("observed rerun diverged:\n%s\nvs\n%s", out3.String(), out1.String())
	}
	vcs, err := exp.AxisNamed("vcs")
	if err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != len(vcs.Values) {
		t.Fatalf("observed pass wrote %d CSVs (%v), want %d", len(entries), err, len(vcs.Values))
	}
}
