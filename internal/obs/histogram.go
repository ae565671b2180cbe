package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of finite log2-scaled buckets: bucket 0 holds
// values <= 0 and 1, bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1].
// 48 buckets cover up to ~2.8e14 units — with microsecond units that is
// ~8.9 years of latency, with cycle units any simulation horizon we run.
const HistBuckets = 48

// Histogram is a fixed-bucket log-scaled latency histogram. Observe is
// allocation-free and safe for concurrent use (a single atomic add per
// bucket), so it sits on serving hot paths; buckets are powers of two, so
// the bucket index is one bits.Len64. Values are unit-agnostic int64s —
// the serving layer observes microseconds, the simulation layer cycles —
// and the Prometheus rendering scales them to seconds at exposition time.
//
// The zero value is ready to use.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	sum    atomic.Int64
	count  atomic.Uint64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v)) // 0 for 0; values 2^(i-1)..2^i-1 -> i
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(int64(d / time.Microsecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot returns a point-in-time copy for reading. Buckets are read
// individually, so a snapshot taken under concurrent Observe traffic may be
// off by the in-flight observations — fine for monitoring, and the only
// readers are scrape/report paths.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// HistSnapshot is an immutable copy of a Histogram.
type HistSnapshot struct {
	Counts [HistBuckets]uint64
	Sum    int64
	Count  uint64
}

// BucketBound returns the inclusive upper bound of bucket i (2^i - 1; the
// last bucket absorbs everything above).
func BucketBound(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Histogram renders a snapshot as a real Prometheus histogram family:
// cumulative <name>_bucket{le="..."} samples, <name>_sum and <name>_count.
// unitSeconds converts one histogram unit to seconds (1e-6 for microsecond
// histograms); le bounds and the sum are emitted in seconds per the
// Prometheus convention. Every finite bucket is rendered, empty or not, so
// an objective's bucket (le="33.554431" for 30 s) is a series from the first
// scrape; the overflow bucket is counted only by le="+Inf".
func (p *PromWriter) Histogram(name, help string, s HistSnapshot, unitSeconds float64) {
	p.Family(name, help, "histogram")
	var cum uint64
	for i := 0; i < HistBuckets-1; i++ {
		cum += s.Counts[i]
		// Dividing by the units per second keeps each label the exact
		// decimal (2.097151, not 2.0971509999999998) a query names.
		le := float64(BucketBound(i)) / (1 / unitSeconds)
		p.Sample(name+"_bucket", `le="`+formatFloat(le)+`"`, float64(cum))
	}
	p.Sample(name+"_bucket", `le="+Inf"`, float64(s.Count))
	p.Sample(name+"_sum", "", float64(s.Sum)*unitSeconds)
	p.Sample(name+"_count", "", float64(s.Count))
}
