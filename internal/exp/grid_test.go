package exp

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestGridIndexesKernelByPoint: res[k][p] is kernels[k] run under points[p]
// applied to Base — the same Result the single-run path returns — whatever
// order the kernels come in.
func TestGridIndexesKernelByPoint(t *testing.T) {
	r := tinyRunner(t)
	kernels := []trace.Kernel{r.Benchmarks[2], r.Benchmarks[0], r.Benchmarks[1]}
	points := append(SchemePoints(core.XYBaseline, core.AdaARI),
		Point{"seed 2", func(c *core.Config) { c.Seed = 2 }})
	res, err := r.Grid(kernels, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(kernels) {
		t.Fatalf("%d rows, want %d", len(res), len(kernels))
	}
	for k, kernel := range kernels {
		if len(res[k]) != len(points) {
			t.Fatalf("row %d has %d results, want %d", k, len(res[k]), len(points))
		}
		for p, point := range points {
			cfg := r.Base
			point.Edit(&cfg)
			want, err := r.Run(cfg, kernel)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res[k][p], want) {
				t.Errorf("res[%d][%d] is %s/%s, want %s under %q", k, p, res[k][p].Benchmark, res[k][p].Scheme, kernel.Name, point.Label)
			}
		}
	}
}

// TestGridSimulatesRepeatedPairOnce: points that edit Base into the same
// config share one simulation per kernel, within a grid and across grids.
func TestGridSimulatesRepeatedPairOnce(t *testing.T) {
	r := tinyRunner(t)
	kernels := r.Benchmarks[:2]
	points := []Point{
		scheme("XY", core.XYBaseline),
		scheme("XY again", core.XYBaseline),
		scheme("ARI", core.AdaARI),
		// The same XY-Baseline config, reached by another edit.
		{"XY, base VCs", func(c *core.Config) { c.Scheme, c.VCs = core.XYBaseline, r.Base.VCs }},
	}
	res, err := r.Grid(kernels, points)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Runs(), 2*len(kernels); got != want {
		t.Fatalf("%d runs for %d kernels x 2 distinct configs, want %d", got, len(kernels), want)
	}
	for k := range kernels {
		if !reflect.DeepEqual(res[k][0], res[k][1]) || !reflect.DeepEqual(res[k][0], res[k][3]) {
			t.Errorf("kernel %d: repeated config gave different results", k)
		}
	}
	if _, err := r.Grid(kernels, points[2:3]); err != nil {
		t.Fatal(err)
	}
	if got := r.Runs(); got != 2*len(kernels) {
		t.Fatalf("a second grid over finished pairs ran %d more simulations", got-2*len(kernels))
	}
}
