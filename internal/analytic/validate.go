package analytic

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/trace"
)

// Band is the recorded estimator-vs-simulator comparison for one
// (benchmark, scheme) point: both sides' headline numbers and the signed
// relative errors. The recorded errors are the drift oracle's reference —
// both sides are deterministic, so any later divergence from these numbers
// means the physics of the simulator (or the model) changed.
type Band struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`

	SimRepLatency float64 `json:"sim_rep_latency"`
	EstRepLatency float64 `json:"est_rep_latency"`
	// RepErr is (est-sim)/sim for the mean reply-packet latency.
	RepErr float64 `json:"rep_err"`

	SimIPC float64 `json:"sim_ipc"`
	EstIPC float64 `json:"est_ipc"`
	// IPCErr is (est-sim)/sim for aggregate IPC.
	IPCErr float64 `json:"ipc_err"`
}

// Bands is the golden file format (testdata/error_bands.json): the exact
// validation configuration, the drift tolerance, and one Band per
// (benchmark, scheme) point.
type Bands struct {
	// Warmup/Measure/Seed pin the simulation horizon the bands were
	// recorded at; CheckDrift refuses to compare bands recorded under a
	// different protocol.
	Warmup  int64  `json:"warmup"`
	Measure int64  `json:"measure"`
	Seed    uint64 `json:"seed"`
	// Tol is the allowed drift of each relative error from its recorded
	// value, in absolute error points (0.02 = two percentage points).
	Tol   float64 `json:"tol"`
	Bands []Band  `json:"bands"`
}

// DriftTol is the default allowed drift of a relative error from its
// recorded value. Both the simulator and the model are deterministic, so a
// re-run on unchanged code reproduces the recorded errors exactly; the
// tolerance only absorbs deliberate, reviewed micro-changes (e.g. a stats
// rounding fix) without tripping on them.
const DriftTol = 0.02

// ValidationSchemes are the scheme axes the error bands cover: the enhanced
// baseline, the full ARI design and the MultiPort competitor — one per NI
// architecture the model distinguishes.
func ValidationSchemes() []core.Scheme {
	return []core.Scheme{core.XYBaseline, core.AdaARI, core.AdaMultiPort}
}

// ValidationConfig is the pinned configuration the error bands are recorded
// at: Table I defaults with a short deterministic horizon, so the full
// 30-workload x 3-scheme comparison stays tractable in CI.
func ValidationConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.WarmupCycles = 1500
	cfg.MeasureCycles = 4000
	cfg.Seed = 1
	return cfg
}

// Compare sets the estimator against simulated results over kernels x
// schemes: res[k][s] is kernels[k] simulated under cfg with schemes[s] (the
// shape exp.Runner.Grid returns). It runs nothing and returns one Band per
// point, in (kernel, scheme) order.
func Compare(cfg core.Config, kernels []trace.Kernel, schemes []core.Scheme, res [][]core.Result) ([]Band, error) {
	if len(res) != len(kernels) {
		return nil, fmt.Errorf("analytic: %d result rows for %d kernels", len(res), len(kernels))
	}
	bands := make([]Band, 0, len(kernels)*len(schemes))
	for ki, k := range kernels {
		if len(res[ki]) != len(schemes) {
			return nil, fmt.Errorf("analytic: %s: %d results for %d schemes", k.Name, len(res[ki]), len(schemes))
		}
		for si, s := range schemes {
			c := cfg
			c.Scheme = s
			m, err := NewModel(c)
			if err != nil {
				return nil, err
			}
			est := m.Estimate(k)
			sim := res[ki][si]
			simRep := sim.Rep.AvgLatency(noc.ReadReply, noc.WriteReply)
			b := Band{
				Bench:         k.Name,
				Scheme:        s.String(),
				SimRepLatency: simRep,
				EstRepLatency: est.RepLatency,
				SimIPC:        sim.IPC,
				EstIPC:        est.IPC,
			}
			b.RepErr = relErr(est.RepLatency, simRep)
			b.IPCErr = relErr(est.IPC, sim.IPC)
			bands = append(bands, b)
		}
	}
	return bands, nil
}

// relErr returns the signed relative error of est against sim.
func relErr(est, sim float64) float64 {
	if sim == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (est - sim) / sim
}

// CheckDrift compares freshly measured bands against the recorded goldens:
// every recorded point must be present, and each relative error must sit
// within Tol of its recorded value. It returns every violation joined into
// one error, or nil when the oracle is green.
func (g *Bands) CheckDrift(current []Band) error {
	cur := make(map[[2]string]Band, len(current))
	for _, b := range current {
		cur[[2]string{b.Bench, b.Scheme}] = b
	}
	tol := g.Tol
	if tol <= 0 {
		tol = DriftTol
	}
	var violations []string
	for _, want := range g.Bands {
		got, ok := cur[[2]string{want.Bench, want.Scheme}]
		if !ok {
			continue // caller chose a subset; absent points are not drift
		}
		if d := math.Abs(got.RepErr - want.RepErr); d > tol || math.IsNaN(d) {
			violations = append(violations, fmt.Sprintf(
				"%s/%s: reply-latency error drifted %+.4f -> %+.4f (|Δ|=%.4f > %.4f; sim %.1f -> %.1f cycles)",
				want.Bench, want.Scheme, want.RepErr, got.RepErr, d, tol, want.SimRepLatency, got.SimRepLatency))
		}
		if d := math.Abs(got.IPCErr - want.IPCErr); d > tol || math.IsNaN(d) {
			violations = append(violations, fmt.Sprintf(
				"%s/%s: IPC error drifted %+.4f -> %+.4f (|Δ|=%.4f > %.4f; sim %.3f -> %.3f)",
				want.Bench, want.Scheme, want.IPCErr, got.IPCErr, d, tol, want.SimIPC, got.SimIPC))
		}
	}
	if len(violations) == 0 {
		return nil
	}
	sort.Strings(violations)
	msg := "analytic: estimator-vs-simulator error drifted outside the recorded bands (simulator physics or model changed; re-record with -analytic-record after review):"
	for _, v := range violations {
		msg += "\n  " + v
	}
	return fmt.Errorf("%s", msg)
}

// Lookup returns the recorded band for one (bench, scheme) point.
func (g *Bands) Lookup(bench, scheme string) (Band, bool) {
	for _, b := range g.Bands {
		if b.Bench == bench && b.Scheme == scheme {
			return b, true
		}
	}
	return Band{}, false
}

// LoadBands reads a recorded golden file.
func LoadBands(path string) (*Bands, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Bands
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("analytic: parsing %s: %w", path, err)
	}
	return &g, nil
}

// WriteBands records a golden file (indented, trailing newline, stable
// order) — the format the drift oracle and git diffs read.
func WriteBands(path string, g *Bands) error {
	sort.Slice(g.Bands, func(i, j int) bool {
		if g.Bands[i].Bench != g.Bands[j].Bench {
			return g.Bands[i].Bench < g.Bands[j].Bench
		}
		return g.Bands[i].Scheme < g.Bands[j].Scheme
	})
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckProtocol verifies that the golden was recorded under the given
// validation protocol, so drift failures cannot be caused by comparing
// different horizons.
func (g *Bands) CheckProtocol(cfg core.Config) error {
	if g.Warmup != cfg.WarmupCycles || g.Measure != cfg.MeasureCycles || g.Seed != cfg.Seed {
		return fmt.Errorf("analytic: bands recorded at warmup=%d measure=%d seed=%d, validation uses warmup=%d measure=%d seed=%d",
			g.Warmup, g.Measure, g.Seed, cfg.WarmupCycles, cfg.MeasureCycles, cfg.Seed)
	}
	return nil
}
