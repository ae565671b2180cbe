package main

import (
	"regexp"
	"testing"
)

func d(entries ...entry) doc { return doc{Benchmarks: entries} }

func e(pkg, name string, ns float64) entry {
	return entry{Name: name, Package: pkg, Iterations: 100, NsPerOp: ns}
}

func TestCompareFlagsOnlyRegressionsBeyondThreshold(t *testing.T) {
	re := regexp.MustCompile("NetworkStep|SimulatorStep")
	base := d(
		e("repro/internal/noc", "BenchmarkNetworkStepARI", 1000),
		e("repro", "BenchmarkSimulatorStep", 2000),
		e("repro", "BenchmarkFig03", 500), // unmatched: never gated
	)
	fresh := d(
		e("repro/internal/noc", "BenchmarkNetworkStepARI", 1100), // +10%: within budget
		e("repro", "BenchmarkSimulatorStep", 2400),               // +20%: regression
		e("repro", "BenchmarkFig03", 5000),
	)
	regs, _ := compare(base, fresh, re, 15)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	if regs[0].key != "repro.BenchmarkSimulatorStep" {
		t.Fatalf("flagged %s, want repro.BenchmarkSimulatorStep", regs[0].key)
	}
}

func TestCompareToleratesNewAndRemovedBenchmarks(t *testing.T) {
	re := regexp.MustCompile("NetworkStep")
	base := d(e("p", "BenchmarkNetworkStepOld", 100))
	fresh := d(e("p", "BenchmarkNetworkStepNew", 400))
	regs, report := compare(base, fresh, re, 15)
	if len(regs) != 0 {
		t.Fatalf("new/removed benchmarks must not fail the gate: %+v", regs)
	}
	if len(report) != 2 {
		t.Fatalf("report has %d lines, want 2 (one new, one removed):\n%v", len(report), report)
	}
}

func TestCompareTakesMinAcrossRepeatedRuns(t *testing.T) {
	// A -count=3 run emits three entries per benchmark; the gate must
	// judge the minimum on both sides, so one noisy repetition cannot
	// fail (or hide) a regression.
	re := regexp.MustCompile("NetworkStep")
	base := d(
		e("p", "BenchmarkNetworkStepARI", 1200),
		e("p", "BenchmarkNetworkStepARI", 1000), // min
		e("p", "BenchmarkNetworkStepARI", 1500),
	)
	fresh := d(
		e("p", "BenchmarkNetworkStepARI", 1600), // noisy outlier
		e("p", "BenchmarkNetworkStepARI", 1050), // min: +5%, within budget
		e("p", "BenchmarkNetworkStepARI", 1400),
	)
	regs, report := compare(base, fresh, re, 15)
	if len(regs) != 0 {
		t.Fatalf("min-of-N must absorb the outlier: %+v", regs)
	}
	if len(report) != 1 {
		t.Fatalf("repeated entries must fold to one report line, got %d:\n%v", len(report), report)
	}

	// A real regression survives folding: every fresh repetition is slow.
	slow := d(
		e("p", "BenchmarkNetworkStepARI", 1900),
		e("p", "BenchmarkNetworkStepARI", 1800),
	)
	regs, _ = compare(base, slow, re, 15)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
}

func TestCompareDistinguishesPackages(t *testing.T) {
	// The same benchmark name in two packages must not cross-compare.
	re := regexp.MustCompile("Step")
	base := d(e("a", "BenchmarkStep", 100), e("b", "BenchmarkStep", 10000))
	fresh := d(e("a", "BenchmarkStep", 101), e("b", "BenchmarkStep", 10100))
	regs, _ := compare(base, fresh, re, 15)
	if len(regs) != 0 {
		t.Fatalf("cross-package comparison: %+v", regs)
	}
}
