package exp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestFiguresRunTheAxes: §7.5 and Fig 15 simulate exactly Base + scheme +
// the mesh and vcs axes' points, so arisweep's sweep and the figures share
// one definition. Two decisions are locked alongside: a mesh point keeps
// Base's MC count, and a vcs point caps the injection speedup at the VC
// count (Base's 4, so Fig 15's 2VC and 4VC run at speedup 2 and 4).
func TestFiguresRunTheAxes(t *testing.T) {
	r := tinyRunner(t)
	for _, gen := range []func(*Runner) (*Figure, error){Scalability, Fig15} {
		if _, err := gen(r); err != nil {
			t.Fatal(err)
		}
	}
	bfs, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		axis   string
		values []int
		check  func(v int, cfg core.Config) bool
	}{
		{"mesh", []int{4, 6, 8}, func(v int, cfg core.Config) bool { return cfg.NumMC == 8 }},
		{"vcs", []int{2, 4}, func(v int, cfg core.Config) bool { return cfg.InjSpeedup == v }},
	} {
		for _, v := range c.values {
			for _, s := range []core.Scheme{core.AdaBaseline, core.AdaARI} {
				cfg := r.Base
				cfg.Scheme = s
				axis(c.axis).Point(v).Edit(&cfg)
				if _, ok := r.LookupKey(JobKey(cfg, bfs.Name)); !ok {
					t.Errorf("%s=%d under %s: the figure did not run the axis point", c.axis, v, s)
				}
				if !c.check(v, cfg) {
					t.Errorf("%s=%d: NumMC %d, InjSpeedup %d", c.axis, v, cfg.NumMC, cfg.InjSpeedup)
				}
			}
		}
	}
}
