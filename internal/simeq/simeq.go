// Package simeq is the determinism lock of the simulator: it pins encoded
// core.Results across commits. Each stepping layer proves its skips exact
// against a visit-everything reference in its own tests (internal/noc,
// internal/gpu, internal/core); this package covers their composition.
//
// Identity is checked on the JSON encoding: every Result field is either an
// exported scalar/array or a stats.Mean, which marshals its raw float
// accumulators at full precision, so byte-equal encodings imply bit-equal
// results. The encoding backs the two cross-commit locks: the golden file
// (three benchmark x scheme matrices in full, testdata/golden.json) and the
// digest table of the 90-point validation matrix plus the ideal-reply and
// DA2mesh fabrics (testdata/matrix_digests.json); run with -update to
// regenerate either after an intentional model change.
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
// to the digest tests: long enough to exercise warmup reset, contention,
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
	res, err := sim.RunChecked(core.CheckOptions{})
	if err != nil {
		tb.Fatalf("run %s/%s: %v", k.Name, cfg.Scheme, err)
	}
	enc, err := Encode(res)
	if err != nil {
		tb.Fatalf("encode %s/%s: %v", k.Name, cfg.Scheme, err)
	}
	return enc
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
