package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// identityPoint is one run of an identity pair: a scheme with its speedup
// and priority-level knobs (0 keeps DefaultConfig's).
type identityPoint struct {
	scheme          Scheme
	speedup, levels int
}

func (p identityPoint) String() string {
	return fmt.Sprintf("%v (speedup %d, levels %d)", p.scheme, p.speedup, p.levels)
}

func (p identityPoint) config() Config {
	cfg := DefaultConfig()
	cfg.Scheme = p.scheme
	if p.speedup != 0 {
		cfg.InjSpeedup = p.speedup
	}
	if p.levels != 0 {
		cfg.PriorityLevels = p.levels
	}
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 400
	return cfg
}

// TestSchemeIdentities holds the simulator to the algebra of the scheme
// table: a mechanism set to do nothing is the scheme without it, and a knob
// a scheme does not read changes nothing. Each pair must give equal Results
// apart from the scheme label, on every kernel of the suite. A model change
// that breaks one must say why.
func TestSchemeIdentities(t *testing.T) {
	pairs := []struct {
		a, b identityPoint
		why  string
	}{
		{identityPoint{AdaARI, 1, 1}, identityPoint{scheme: AccSupply}, "speedup 1 and one level leave ARI its supply"},
		{identityPoint{AdaARI, 0, 1}, identityPoint{scheme: AccBothNoPriority}, "one priority level is no priority"},
		{identityPoint{AccConsume, 1, 0}, identityPoint{scheme: AdaBaseline}, "speedup 1 is no speedup"},
		{identityPoint{AdaBaseline, 0, 5}, identityPoint{scheme: AdaBaseline}, "levels without priority"},
		{identityPoint{AccSupply, 2, 0}, identityPoint{scheme: AccSupply}, "a speedup without speedup"},
	}
	for _, k := range trace.Suite() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			runs := map[identityPoint]Result{}
			run := func(p identityPoint) Result {
				if r, ok := runs[p]; ok {
					return r
				}
				sim, err := NewSimulator(p.config(), k)
				if err != nil {
					t.Fatal(err)
				}
				r, err := sim.RunChecked(CheckOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if r.Rep.TotalPackets() == 0 {
					t.Fatalf("%v delivered no replies", p)
				}
				runs[p] = r
				return r
			}
			for _, pr := range pairs {
				a, b := run(pr.a), run(pr.b)
				b.Scheme = a.Scheme
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%v != %v (%s):\n%+v\n%+v", pr.a, pr.b, pr.why, a, b)
				}
			}
		})
	}
}
