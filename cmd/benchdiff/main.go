// Command benchdiff is the benchmark regression gate: it reads a fresh
// benchjson document on stdin, compares it against a committed baseline
// (the newest BENCH_*.json, via make benchdiff), and exits non-zero when
// any matched benchmark's ns/op regressed beyond the threshold.
//
//	go test -bench ... | go run ./cmd/benchjson | \
//	    go run ./cmd/benchdiff -baseline BENCH_20260806.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
)

// entry and doc mirror cmd/benchjson's output schema.
type entry struct {
	Name        string   `json:"name"`
	Package     string   `json:"package,omitempty"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

type doc struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []entry `json:"benchmarks"`
}

// regression is one benchmark whose fresh ns/op exceeds the budget.
type regression struct {
	key              string
	baseline, fresh  float64
	deltaPct, budget float64
}

// fold collapses duplicate benchmark entries (a -count=N run emits one
// line per repetition) to the minimum ns/op per key, preserving
// first-seen order. Min-of-N is the noise-robust estimate on a shared
// machine: scheduling interference only ever slows an iteration down.
func fold(d doc) []entry {
	idx := make(map[string]int, len(d.Benchmarks))
	var out []entry
	for _, e := range d.Benchmarks {
		key := e.Package + "." + e.Name
		if i, ok := idx[key]; ok {
			if e.NsPerOp < out[i].NsPerOp {
				out[i] = e
			}
			continue
		}
		idx[key] = len(out)
		out = append(out, e)
	}
	return out
}

// compare diffs fresh against base for benchmarks matching match, returning
// regressions beyond thresholdPct and a human-readable report of every
// matched pair. Repeated entries per name (-count=N) are folded to their
// minimum ns/op on both sides first. Benchmarks present on only one side
// are reported but never fail the gate (new benchmarks must be able to
// land before their baseline).
func compare(base, fresh doc, match *regexp.Regexp, thresholdPct float64) ([]regression, []string) {
	baseEntries := fold(base)
	freshEntries := fold(fresh)
	baseline := make(map[string]entry, len(baseEntries))
	for _, e := range baseEntries {
		baseline[e.Package+"."+e.Name] = e
	}
	var regs []regression
	var report []string
	seen := make(map[string]bool)
	for _, e := range freshEntries {
		if !match.MatchString(e.Name) {
			continue
		}
		key := e.Package + "." + e.Name
		seen[key] = true
		b, ok := baseline[key]
		if !ok {
			report = append(report, fmt.Sprintf("  %-50s %12.0f ns/op  (new, no baseline)", key, e.NsPerOp))
			continue
		}
		delta := 100 * (e.NsPerOp - b.NsPerOp) / b.NsPerOp
		mark := ""
		if delta > thresholdPct {
			mark = "  REGRESSION"
			regs = append(regs, regression{key: key, baseline: b.NsPerOp, fresh: e.NsPerOp, deltaPct: delta, budget: thresholdPct})
		}
		report = append(report, fmt.Sprintf("  %-50s %12.0f -> %12.0f ns/op  %+6.1f%%%s",
			key, b.NsPerOp, e.NsPerOp, delta, mark))
	}
	for _, e := range baseEntries {
		key := e.Package + "." + e.Name
		if match.MatchString(e.Name) && !seen[key] {
			report = append(report, fmt.Sprintf("  %-50s (in baseline, not in fresh run)", key))
		}
	}
	return regs, report
}

func main() {
	baselinePath := flag.String("baseline", "", "committed benchjson document to compare against (required)")
	threshold := flag.Float64("threshold", 15, "maximum tolerated ns/op regression in percent")
	match := flag.String("match", "NetworkStep|SimulatorStep", "regexp selecting gated benchmark names")
	flag.Parse()

	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline is required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff: bad -match:", err)
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var base, fresh doc
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: parsing %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if err := json.NewDecoder(os.Stdin).Decode(&fresh); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff: parsing stdin:", err)
		os.Exit(2)
	}

	regs, report := compare(base, fresh, re, *threshold)
	fmt.Printf("benchdiff: baseline %s (%d benchmarks), threshold %.0f%%\n",
		*baselinePath, len(base.Benchmarks), *threshold)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(regs) > 0 {
		fmt.Printf("benchdiff: %d benchmark(s) regressed beyond %.0f%%\n", len(regs), *threshold)
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok")
}
