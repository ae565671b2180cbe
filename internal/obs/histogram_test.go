package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	h.Observe(math.MaxInt64) // lands in the overflow bucket
	s := h.Snapshot()
	if s.Counts[0] != 2 || s.Counts[HistBuckets-1] != 1 {
		t.Fatalf("counts = %v ... %v", s.Counts[0], s.Counts[HistBuckets-1])
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
		`ari_job_seconds_bucket{le="2.097151"} 3`,  // the gateway's 2 s objective bucket, above every observation
		`ari_job_seconds_bucket{le="33.554431"} 3`, // the server's 30 s one
		`ari_job_seconds_bucket{le="+Inf"} 3`,
		"ari_job_seconds_count 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendering missing %q:\n%s", want, got)
		}
	}
	// Every finite bucket but the overflow one, then +Inf: the series set
	// does not depend on what was observed.
	if n := strings.Count(got, "_bucket{"); n != HistBuckets {
		t.Fatalf("%d buckets, want %d:\n%s", n, HistBuckets, got)
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
