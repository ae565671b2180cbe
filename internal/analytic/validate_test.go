package analytic_test

import (
	"context"
	"flag"
	"testing"

	"repro/internal/analytic"
	"repro/internal/exp"
	"repro/internal/trace"
)

var (
	recordBands = flag.Bool("analytic-record", false,
		"re-record testdata/error_bands.json from fresh simulations (full suite x schemes); review the diff before committing")
	fullBands = flag.Bool("analytic-full", false,
		"validate the full suite x schemes against the recorded bands (the make validate-analytic gate); the default is a small subset")
)

const bandsPath = "testdata/error_bands.json"

// subsetBenches bounds the tier-1 run: enough points to catch a physics
// change in any scheme without paying for the full suite on every
// `go test ./...`. The full matrix runs under -analytic-full.
const subsetBenches = 6

// TestErrorBands is the estimator-vs-simulator drift oracle (DESIGN.md
// §12). Both sides are deterministic, so the relative errors recorded in
// the golden reproduce exactly on unchanged code; any drift beyond the
// tolerance means the simulator's physics or the model changed, and the
// failure is independent of the byte-identity goldens.
func TestErrorBands(t *testing.T) {
	cfg := analytic.ValidationConfig()
	suite := trace.Suite()
	runner := &exp.Runner{Base: cfg, Benchmarks: suite}
	schemes := analytic.ValidationSchemes()

	compare := func(kernels []trace.Kernel) []analytic.Band {
		t.Helper()
		res, err := runner.Grid(context.Background(), kernels, exp.SchemePoints(schemes...))
		if err != nil {
			t.Fatal(err)
		}
		bands, err := analytic.Compare(cfg, kernels, schemes, res)
		if err != nil {
			t.Fatal(err)
		}
		return bands
	}

	if *recordBands {
		bands := compare(suite)
		g := &analytic.Bands{
			Warmup:  cfg.WarmupCycles,
			Measure: cfg.MeasureCycles,
			Seed:    cfg.Seed,
			Tol:     analytic.DriftTol,
			Bands:   bands,
		}
		if err := analytic.WriteBands(bandsPath, g); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d bands to %s", len(bands), bandsPath)
		return
	}

	g, err := analytic.LoadBands(bandsPath)
	if err != nil {
		t.Fatalf("loading goldens (re-create with -analytic-record): %v", err)
	}
	if err := g.CheckProtocol(cfg); err != nil {
		t.Fatal(err)
	}

	kernels := suite
	if !*fullBands {
		kernels = suite[:subsetBenches]
	}
	bands := compare(kernels)
	// Every measured point must have a recorded reference — a new benchmark
	// or scheme needs a re-record, not a silent pass.
	for _, b := range bands {
		if _, ok := g.Lookup(b.Bench, b.Scheme); !ok {
			t.Errorf("no recorded band for %s/%s; re-record with -analytic-record", b.Bench, b.Scheme)
		}
	}
	if err := g.CheckDrift(bands); err != nil {
		t.Fatal(err)
	}
}

// TestBandsGoldenCoversFullMatrix locks the golden's shape without running
// any simulation: one band per (suite kernel, validation scheme), so the
// full gate can never silently validate a subset.
func TestBandsGoldenCoversFullMatrix(t *testing.T) {
	g, err := analytic.LoadBands(bandsPath)
	if err != nil {
		t.Fatalf("loading goldens (re-create with -analytic-record): %v", err)
	}
	suite := trace.Suite()
	schemes := analytic.ValidationSchemes()
	if want := len(suite) * len(schemes); len(g.Bands) != want {
		t.Fatalf("golden has %d bands, want %d (%d kernels x %d schemes)",
			len(g.Bands), want, len(suite), len(schemes))
	}
	for _, k := range suite {
		for _, s := range schemes {
			if _, ok := g.Lookup(k.Name, s.String()); !ok {
				t.Errorf("golden missing %s/%s", k.Name, s)
			}
		}
	}
}
