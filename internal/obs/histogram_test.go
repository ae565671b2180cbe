package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	// Log buckets are exact to within a factor of 2.
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {1, 1000}} {
		got := s.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("q%v = %v, want within 2x of %v", c.q, got, c.want)
		}
	}
	if q := s.Quantile(0); q < 0 || q > 2 {
		t.Errorf("q0 = %v", q)
	}

	// Compliance is monotone in the threshold and exact at bucket bounds.
	if c := s.Compliance(BucketBound(10)); math.Abs(c-1) > 1e-9 { // 1023 >= all
		t.Errorf("compliance(1023) = %v, want 1", c)
	}
	lo, hi := s.Compliance(100), s.Compliance(800)
	if !(lo > 0 && lo < hi && hi < 1) {
		t.Errorf("compliance not monotone: c(100)=%v c(800)=%v", lo, hi)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	h.Observe(math.MaxInt64) // lands in the overflow bucket
	s := h.Snapshot()
	if s.Counts[0] != 2 || s.Counts[HistBuckets-1] != 1 {
		t.Fatalf("counts = %v ... %v", s.Counts[0], s.Counts[HistBuckets-1])
	}
	var empty HistSnapshot
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 || empty.Compliance(1) != 1 {
		t.Fatal("empty snapshot not neutral")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		h.ObserveDuration(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
}

func TestPromHistogramRendering(t *testing.T) {
	var h Histogram
	h.Observe(1)   // bucket 1 (le 1)
	h.Observe(3)   // bucket 2 (le 3)
	h.Observe(900) // bucket 10 (le 1023)
	var p PromWriter
	p.Histogram("ari_job_seconds", "Job latency.", h.Snapshot(), 1e-6)
	got := p.String()
	for _, want := range []string{
		"# TYPE ari_job_seconds histogram",
		`ari_job_seconds_bucket{le="1e-06"} 1`,
		`ari_job_seconds_bucket{le="3e-06"} 2`,
		`ari_job_seconds_bucket{le="0.001023"} 3`,
		`ari_job_seconds_bucket{le="+Inf"} 3`,
		"ari_job_seconds_count 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendering missing %q:\n%s", want, got)
		}
	}
	// Cumulative counts must be non-decreasing and end at _count.
	if strings.Count(got, "_bucket{") < 4 {
		t.Fatalf("too few buckets:\n%s", got)
	}
}

// BenchmarkHistogramObserve prices the serving hot path: one Observe per
// request must stay a couple of atomic adds, allocation-free.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
