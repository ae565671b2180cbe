package main

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/serve"
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
}

func TestRunSpeedupSweep(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-param", "speedup", "-bench", "bfs", "-cycles", "300", "-warmup", "100"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	got := out.String()
	for _, want := range []string{"sweep speedup on bfs", "S=1", "S=4", "IPC"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
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
}
