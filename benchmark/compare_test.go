package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4)
	if q1, q3 := quartiles([]float64{10, 20, 40}); q1 != 10 || q3 != 40 {
		t.Errorf("quartiles = %v, %v; want 10, 40", q1, q3)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); v != 89 || pct != 90 {
		t.Errorf("tail of 0..99 = %v (p%v); want 89 (p90)", v, pct)
	}
	if v, _ := tail([]float64{3, 1, 2}); v != 2 {
		t.Errorf("tail of three samples = %v; want their median 2", v)
	}
}

// writeReport stores a one-workload report whose end-to-end metrics are
// all v, except sim_kcycles_per_s which is sim.
func writeReport(t *testing.T, dir, name string, v, sim float64, digest string) string {
	t.Helper()
	run := &runResult{Workload: "sim-low-load", Correct: true, Attempted: 1, ResultDigest: digest, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		run.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	run.Metrics["sim_kcycles_per_s"] = metricValue{Value: sim, Unit: "kcycles/s"}
	b, err := json.Marshal(&report{Schema: 1, Seed: 1, Runs: []*runResult{run}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	a := []string{writeReport(t, dir, "a1", 10, 100, "d"), writeReport(t, dir, "a2", 10, 101, "d"), writeReport(t, dir, "a3", 10, 99, "d")}
	same := []string{writeReport(t, dir, "b1", 10, 100.5, "d"), writeReport(t, dir, "b2", 10, 99.5, "d"), writeReport(t, dir, "b3", 10, 100, "d")}
	slow := []string{writeReport(t, dir, "c1", 10, 50, "d"), writeReport(t, dir, "c2", 10, 51, "d"), writeReport(t, dir, "c3", 10, 49, "d")}
	noisy := []string{writeReport(t, dir, "d1", 10, 50, "d"), writeReport(t, dir, "d2", 10, 100, "d"), writeReport(t, dir, "d3", 10, 150, "d")}
	drift := []string{writeReport(t, dir, "e1", 10, 100, "other")}

	var out bytes.Buffer
	if err := compareReports(&out, a, same); err != nil {
		t.Errorf("A/A: %v\n%s", err, out.String())
	}
	for name, c := range map[string]struct {
		b    []string
		want string
	}{"slow": {slow, "worse"}, "noisy": {noisy, "unresolved"}, "drift": {drift, "result_digest"}} {
		out.Reset()
		if err := compareReports(&out, a, c.b); err == nil || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: err %v, output lacks %q:\n%s", name, err, c.want, out.String())
		}
	}

	prev, _ := loadReport(a[0])
	if err := expectDigests(&out, drift[0], prev); err == nil {
		t.Error("-expect-digests accepted a different result digest")
	}
	if err := expectDigests(&out, a[1], prev); err != nil {
		t.Errorf("-expect-digests rejected an identical digest: %v", err)
	}
}
