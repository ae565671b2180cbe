package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// recorder collects one run's samples, correctness checks and spans. A
// metric's value is the median of its samples; "_p50" and "_tail" metrics
// are the median and the tail of the sample set named by the prefix.
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64
	attempted int
	failed    int
	failures  []string // first few, for the report

	// spans is nil unless the traced pass keeps them for -trace-out.
	keepSpans bool
	spans     []obs.Span
}

func newRecorder() *recorder { return &recorder{samples: make(map[string][]float64)} }

func (r *recorder) add(name string, v ...float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v...)
	r.mu.Unlock()
}

// check counts one attempted operation and, when !ok, one failed one.
func (r *recorder) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *recorder) span(s obs.Span) {
	if !r.keepSpans {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// value resolves one declared metric from the samples: its value, how many
// samples stand behind it, and for a tail which percentile it is.
func (r *recorder) value(name string) (v float64, samples int, tailPct float64, err error) {
	base, isTail := strings.CutSuffix(name, "_tail")
	if !isTail {
		base = strings.TrimSuffix(name, "_p50")
	}
	xs := r.samples[base]
	if len(xs) == 0 {
		return 0, 0, 0, fmt.Errorf("metric %s was not measured", name)
	}
	if isTail {
		v, tailPct = tail(xs)
		return v, len(xs), tailPct, nil
	}
	return median(xs), len(xs), 0, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has ten samples beyond
// it, never below the median, and that percentile.
func tail(xs []float64) (v, pct float64) {
	s := sorted(xs)
	n := len(s)
	i := n - 11
	if i < n/2 {
		i = n / 2
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
