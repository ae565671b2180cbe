package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps the checked-in declaration and the
// metric tables from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the tables in defs.go; regenerate it with -print-benchmark-json")
	}
}

// TestQuickEmitsDeclaredMetrics runs the -quick sizes of every workload,
// both passes, and checks names and correctness only: it asserts nothing
// about time, so a loaded box cannot fail it.
func TestQuickEmitsDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := [2]map[string]bool{{}, {}}
	for _, m := range decl.EndToEnd {
		want[0][m.Name] = true
	}
	for _, m := range decl.PerLayer {
		want[1][m.Name] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for _, dw := range decl.Workloads {
		w, ok := findWorkload(dw.Name)
		if !ok {
			t.Fatalf("declared workload %q is not defined", dw.Name)
		}
		var digests [2]string
		for pass := 0; pass < 2; pass++ {
			res, err := runWorkload(w, options{seed: 1, quick: true, traced: pass == 1}, "")
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, pass, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d operations failed: %v", w.Name, pass, res.Failed, res.Attempted, res.Failures)
			}
			for n := range res.Metrics {
				if !want[pass][n] {
					t.Errorf("%s trace=%d emits undeclared metric %q", w.Name, pass, n)
				}
				if !name.MatchString(n) {
					t.Errorf("metric name %q is outside the contract's alphabet", n)
				}
			}
			for n := range want[pass] {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s trace=%d does not emit declared metric %q", w.Name, pass, n)
				}
			}
			digests[pass] = res.ResultDigest
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: the passes simulated different results: %s vs %s", w.Name, digests[0], digests[1])
		}
	}
}

// TestDriverLine checks the last line the driver parses: exactly the four
// keys, every metric with exactly a value and a unit.
func TestDriverLine(t *testing.T) {
	w, _ := findWorkload("sim-low-load")
	res, err := runWorkload(w, options{seed: 2, quick: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res.print(&out)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 {
		t.Fatalf("last line has keys %v", last)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the last line, want %d", len(metrics), len(endToEnd))
	}
	for n, m := range metrics {
		if _, ok := m["value"].(float64); !ok || len(m) != 2 || m["unit"] == nil {
			t.Errorf("metric %s = %v", n, m)
		}
	}
}
