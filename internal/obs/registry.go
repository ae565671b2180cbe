// Package obs is the observability layer of the simulator: a metrics
// registry snapshotting per-interval time series from the NoC and GPU
// layers, sampled packet-lifetime tracing with the paper's Fig. 2/3-style
// latency decomposition, request-scoped spans with the one Chrome
// trace_event exporter (WriteSpanTrace, which sampled packets reach through
// PacketSpans), the Prometheus text writer and fixed-bucket histograms, and
// live run-progress tracking for the job server.
//
// Everything here is observation only: attaching a registry or a tracer
// never changes a simulated decision, so an instrumented run's Result is
// bit-identical to an uninstrumented one (asserted by the equivalence
// tests). With observability disabled the hot-path cost is a single
// comparison per simulator step and a nil check per head-flit event.
package obs

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/stats"
)

// ProbeKind distinguishes how a probe's readings become samples.
type ProbeKind uint8

const (
	// Gauge records the probe's instantaneous value at each sample.
	Gauge ProbeKind = iota
	// Counter records the delta of a cumulative value since the previous
	// sample (per-interval rate, in events per interval). A drop in the raw
	// value — a mid-run stats reset at the warmup boundary — records the
	// post-reset value instead of a negative delta.
	Counter
)

// probe is one registered metric source.
type probe struct {
	name   string
	kind   ProbeKind
	read   func() float64
	last   float64
	primed bool
	series stats.Series
}

// Registry snapshots a set of named probes into per-interval time series.
// Register probes once at setup, then call Sample at a fixed cadence from
// the simulation loop. Sampling is allocation-free once Reserve has sized
// the series (asserted via testing.AllocsPerRun); registration order is the
// column order of WriteCSV.
//
// A Registry is not safe for concurrent use: it samples on the simulation
// goroutine and must be read only after the run finishes.
type Registry struct {
	interval int64
	times    []int64
	probes   []*probe
	byName   map[string]*probe
}

// NewRegistry returns a registry sampling every interval cycles (the cadence
// is enforced by the caller's sampling hook, not the registry itself).
func NewRegistry(interval int64) *Registry {
	return &Registry{interval: interval, byName: make(map[string]*probe)}
}

// Interval returns the configured sampling interval in cycles.
func (r *Registry) Interval() int64 { return r.interval }

// Gauge registers an instantaneous-value probe.
func (r *Registry) Gauge(name string, read func() float64) {
	r.register(name, Gauge, read)
}

// Counter registers a cumulative-value probe; samples record per-interval
// deltas.
func (r *Registry) Counter(name string, read func() float64) {
	r.register(name, Counter, read)
}

func (r *Registry) register(name string, kind ProbeKind, read func() float64) {
	if read == nil {
		panic("obs: nil probe reader")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate probe %q", name))
	}
	p := &probe{name: name, kind: kind, read: read}
	r.probes = append(r.probes, p)
	r.byName[name] = p
}

// Reserve pre-sizes every series for n total samples so steady-state
// sampling never allocates.
func (r *Registry) Reserve(n int) {
	if cap(r.times) < n {
		t := make([]int64, len(r.times), n)
		copy(t, r.times)
		r.times = t
	}
	for _, p := range r.probes {
		p.series.Reserve(n)
	}
}

// Sample reads every probe and appends one row of the time series at the
// given cycle.
func (r *Registry) Sample(cycle int64) {
	r.times = append(r.times, cycle)
	for _, p := range r.probes {
		v := p.read()
		switch p.kind {
		case Gauge:
			p.series.Append(cycle, v)
		case Counter:
			d := v - p.last
			if d < 0 || !p.primed {
				// First sample, or the cumulative source was reset mid-run
				// (warmup boundary): the interval's activity is the raw value.
				d = v
			}
			p.last = v
			p.primed = true
			p.series.Append(cycle, d)
		}
	}
}

// Samples returns the number of Sample calls recorded.
func (r *Registry) Samples() int { return len(r.times) }

// Names returns the registered probe names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.probes))
	for i, p := range r.probes {
		out[i] = p.name
	}
	return out
}

// Series returns the recorded series for one probe.
func (r *Registry) Series(name string) (*stats.Series, bool) {
	p, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	return &p.series, true
}

// Last returns the most recent sample of one probe (0 when absent or empty).
func (r *Registry) Last(name string) float64 {
	p, ok := r.byName[name]
	if !ok {
		return 0
	}
	_, v := p.series.Last()
	return v
}

// WriteCSV renders the full time series as CSV: a cycle column followed by
// one column per probe in registration order, one row per sample.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "cycle"); err != nil {
		return err
	}
	for _, p := range r.probes {
		if _, err := io.WriteString(w, ","+p.name); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for i, t := range r.times {
		row := strconv.FormatInt(t, 10)
		for _, p := range r.probes {
			row += "," + strconv.FormatFloat(p.series.Value(i), 'g', -1, 64)
		}
		if _, err := io.WriteString(w, row+"\n"); err != nil {
			return err
		}
	}
	return nil
}
