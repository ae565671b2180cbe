package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// SLO tracking (DESIGN.md §15): objectives of the form "a fraction Goal of
// events must be good", where an event is good when its observed latency is
// at or below the objective's threshold (and failures are never good).
// The tracker keeps a ring of coarse time slots so it can report the error
// rate — and from it the burn rate, the SRE multi-window alerting signal —
// over several trailing windows without storing per-event data.
//
// Burn rate is errorRate / (1 - Goal): 1.0 means the error budget is being
// consumed exactly at the sustainable pace, 14.4 means a 99.9% monthly
// budget would be gone in two days. The standard multi-window rule pages
// when both a short and a long window burn fast simultaneously — the short
// window proves it is still happening, the long one that it is material.

// Objective is one latency SLO.
type Objective struct {
	// Name labels the objective in reports and metrics.
	Name string `json:"name"`
	// Threshold is the good/bad latency boundary in the tracker's units
	// (microseconds for the serving layer, cycles for simulated latency).
	Threshold int64 `json:"threshold"`
	// Goal is the target good fraction, e.g. 0.99.
	Goal float64 `json:"goal"`
}

// WindowBurn is one trailing window's error/burn reading.
type WindowBurn struct {
	Window    string  `json:"window"` // e.g. "5m0s"
	Events    uint64  `json:"events"`
	ErrorRate float64 `json:"error_rate"`
	BurnRate  float64 `json:"burn_rate"`
}

// ObjectiveStatus is one objective's row in an SLOReport.
type ObjectiveStatus struct {
	Objective
	// Good/Total count events since process start; Compliance is their
	// ratio (1 when no events yet — an idle service is in SLO).
	Good       uint64  `json:"good"`
	Total      uint64  `json:"total"`
	Compliance float64 `json:"compliance"`
	// Windows holds the trailing-window burn readings, shortest first.
	Windows []WindowBurn `json:"windows"`
	// Alerting is the multi-window page signal: the two shortest windows
	// both burn faster than AlertBurn.
	Alerting bool `json:"alerting"`
}

// SLOReport is the /debug/slo payload.
type SLOReport struct {
	Objectives []ObjectiveStatus `json:"objectives"`
}

// AlertBurn is the burn-rate threshold of the page signal: a 99.9% budget
// consumed 14.4x too fast exhausts a 30-day budget in ~2 days.
const AlertBurn = 14.4

// DefaultBurnWindows are the trailing windows reported per objective.
var DefaultBurnWindows = []time.Duration{5 * time.Minute, time.Hour, 6 * time.Hour}

// SLOTracker classifies observed events against a set of objectives and
// aggregates them into lifetime compliance plus multi-window burn rates.
// Safe for concurrent use.
type SLOTracker struct {
	objectives []Objective
	windows    []time.Duration
	slot       time.Duration
	now        func() time.Time

	mu    sync.Mutex
	slots []sloSlot // ring indexed by (slot index % len)
	good  []uint64  // lifetime, per objective
	total uint64    // lifetime
}

// sloSlot is one time-granule of counts.
type sloSlot struct {
	index int64 // absolute slot number; 0 count rows from other eras ignored
	total uint64
	good  []uint64
}

// NewSLOTracker builds a tracker over the objectives with DefaultBurnWindows
// at 10s slot granularity.
func NewSLOTracker(objectives []Objective) *SLOTracker {
	return newSLOTracker(objectives, DefaultBurnWindows, 10*time.Second, time.Now)
}

// newSLOTracker is the fully parameterised constructor (tests inject a fake
// clock and short windows).
func newSLOTracker(objectives []Objective, windows []time.Duration, slot time.Duration, now func() time.Time) *SLOTracker {
	if slot <= 0 {
		slot = 10 * time.Second
	}
	if len(windows) == 0 {
		windows = DefaultBurnWindows
	}
	maxW := windows[len(windows)-1]
	for _, w := range windows {
		if w > maxW {
			maxW = w
		}
	}
	n := int(maxW/slot) + 1
	t := &SLOTracker{
		objectives: objectives,
		windows:    windows,
		slot:       slot,
		now:        now,
		slots:      make([]sloSlot, n),
		good:       make([]uint64, len(objectives)),
	}
	for i := range t.slots {
		t.slots[i].good = make([]uint64, len(objectives))
	}
	return t
}

// Observe records one successful event with the given latency; it is good
// for every objective whose threshold it meets.
func (t *SLOTracker) Observe(v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.currentSlotLocked()
	s.total++
	t.total++
	for i, o := range t.objectives {
		if v <= o.Threshold {
			s.good[i]++
			t.good[i]++
		}
	}
}

// Fail records one failed event (shed, errored): it counts against every
// objective regardless of how fast the failure was produced.
func (t *SLOTracker) Fail() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.currentSlotLocked().total++
	t.total++
}

// currentSlotLocked returns the ring slot for now, resetting it when it
// still holds counts from a previous lap.
func (t *SLOTracker) currentSlotLocked() *sloSlot {
	idx := t.now().UnixNano() / int64(t.slot)
	s := &t.slots[int(idx%int64(len(t.slots)))]
	if s.index != idx {
		s.index = idx
		s.total = 0
		for i := range s.good {
			s.good[i] = 0
		}
	}
	return s
}

// Report snapshots every objective's compliance and burn rates.
func (t *SLOTracker) Report() SLOReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	nowIdx := t.now().UnixNano() / int64(t.slot)

	rep := SLOReport{Objectives: make([]ObjectiveStatus, len(t.objectives))}
	for oi, o := range t.objectives {
		st := ObjectiveStatus{Objective: o, Good: t.good[oi], Total: t.total, Compliance: 1}
		if t.total > 0 {
			st.Compliance = float64(t.good[oi]) / float64(t.total)
		}
		for _, w := range t.windows {
			span := int64(w / t.slot)
			var total, good uint64
			for _, s := range t.slots {
				if s.index > nowIdx-span && s.index <= nowIdx {
					total += s.total
					good += s.good[oi]
				}
			}
			wb := WindowBurn{Window: w.String(), Events: total}
			if total > 0 {
				wb.ErrorRate = float64(total-good) / float64(total)
			}
			if budget := 1 - o.Goal; budget > 0 {
				wb.BurnRate = wb.ErrorRate / budget
			}
			st.Windows = append(st.Windows, wb)
		}
		if len(st.Windows) >= 2 {
			st.Alerting = st.Windows[0].BurnRate >= AlertBurn && st.Windows[1].BurnRate >= AlertBurn
		} else if len(st.Windows) == 1 {
			st.Alerting = st.Windows[0].BurnRate >= AlertBurn
		}
		rep.Objectives[oi] = st
	}
	return rep
}

// ServeHTTP is /debug/slo on both binaries: the report as JSON.
func (t *SLOTracker) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(t.Report())
}

// WriteMetrics renders the report as Prometheus gauges under the given
// prefix: <prefix>_slo_compliance{objective=...} and
// <prefix>_slo_burn_rate{objective=...,window=...}.
func (r SLOReport) WriteMetrics(p *PromWriter, prefix string) {
	p.Family(prefix+"_slo_compliance", "Lifetime good-event fraction per objective.", "gauge")
	for _, o := range r.Objectives {
		p.Sample(prefix+"_slo_compliance", Labels("objective", o.Name), o.Compliance)
	}
	p.Family(prefix+"_slo_burn_rate", "Error-budget burn rate per objective and trailing window (1 = sustainable).", "gauge")
	for _, o := range r.Objectives {
		for _, w := range o.Windows {
			p.Sample(prefix+"_slo_burn_rate", Labels("objective", o.Name, "window", w.Window), w.BurnRate)
		}
	}
	p.Family(prefix+"_slo_alerting", "Multi-window page signal: the two shortest windows both burn above 14.4.", "gauge")
	for _, o := range r.Objectives {
		p.Sample(prefix+"_slo_alerting", Labels("objective", o.Name), Bool(o.Alerting))
	}
}
