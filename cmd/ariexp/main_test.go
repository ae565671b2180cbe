package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "3", "decompose", "11", "area", "slo"} {
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
