// Package simeq is the determinism lock of the simulator. Its hot loops
// skip provably-idle components (routers, NIs, ejectors, cores, memory
// controllers); the scan-everything loops survive as a test oracle behind
// core.Simulator.UseScanReference, and this package's tests prove the two
// produce bit-identical core.Results for every suite kernel under the
// baseline, ARI, ideal-reply and DA2mesh schemes.
//
// Identity is checked on the JSON encoding: every Result field is either an
// exported scalar/array or a stats.Mean, which marshals its raw float
// accumulators at full precision, so byte-equal encodings imply bit-equal
// results. The same encoding backs the two cross-commit locks: the golden
// file (three benchmark x scheme matrices in full, testdata/golden.json)
// and the digest table of the 90-point validation matrix
// (testdata/matrix_digests.json); run with -update to regenerate either
// after an intentional model change.
package simeq

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// Encode renders a Result as deterministic indented JSON.
func Encode(r core.Result) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ShortConfig returns the Table I configuration with a short horizon suited
// to differential tests: long enough to exercise warmup reset, contention,
// DRAM timing and the reply path, short enough to run the whole suite.
func ShortConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 700
	return cfg
}

// RunEncoded executes one simulation and returns its encoded Result.
func RunEncoded(tb testing.TB, cfg core.Config, k trace.Kernel) []byte {
	tb.Helper()
	sim, err := core.NewSimulator(cfg, k)
	if err != nil {
		tb.Fatalf("build %s/%s: %v", k.Name, cfg.Scheme, err)
	}
	defer sim.Close()
	res := sim.Run()
	enc, err := Encode(res)
	if err != nil {
		tb.Fatalf("encode %s/%s: %v", k.Name, cfg.Scheme, err)
	}
	return enc
}

// Variant is one scheme configuration under differential test.
type Variant struct {
	Name   string
	Scheme core.Scheme
	Ideal  bool
}

// Variants are the reply-path configurations the equivalence suite covers:
// the enhanced baseline, the full ARI design on adaptive routing, the
// ideal-reply instrument (eq. 1) and the DA2mesh overlay.
func Variants() []Variant {
	return []Variant{
		{Name: "baseline", Scheme: core.XYBaseline},
		{Name: "ari", Scheme: core.AdaARI},
		{Name: "ideal", Scheme: core.XYBaseline, Ideal: true},
		{Name: "da2mesh", Scheme: core.DA2MeshBase},
	}
}

// Apply sets the variant on cfg.
func (v Variant) Apply(cfg core.Config) core.Config {
	cfg.Scheme = v.Scheme
	cfg.IdealReply = v.Ideal
	return cfg
}

// diffLine locates the first byte where a and b differ, for readable
// failure messages on multi-kilobyte encodings.
func diffLine(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+40, i+40
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first divergence at byte %d:\n  a: …%s…\n  b: …%s…",
				i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d bytes", len(a), len(b))
}
