package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestHostShapeAlwaysRecorded locks the host-shape fields: go test drops the
// -N name suffix at GOMAXPROCS=1, and a 1-CPU recording used to come out
// with no procs at all, so benchdiff could not tell it from an old snapshot.
func TestHostShapeAlwaysRecorded(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: repro/internal/noc
cpu: Some CPU @ 2.10GHz
BenchmarkNetworkStepARI     	   60979	     12366 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetworkStepARI-4   	   60979	     11000 ns/op	       0 B/op	       0 allocs/op
PASS
`
	d, err := convert(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(d.Benchmarks))
	}
	for i, want := range []int{1, 4} {
		if e := d.Benchmarks[i]; e.Name != "BenchmarkNetworkStepARI" || e.Procs != want {
			t.Errorf("entry %d = %q procs %d, want BenchmarkNetworkStepARI procs %d", i, e.Name, e.Procs, want)
		}
	}
	if d.NumCPU < 1 || d.GOMAXPROCS < 1 {
		t.Errorf("host shape num_cpu=%d gomaxprocs=%d, want both >= 1", d.NumCPU, d.GOMAXPROCS)
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"num_cpu":`, `"gomaxprocs":`, `"procs":1`, `"procs":4`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("encoded document lacks %s: %s", key, raw)
		}
	}
}
