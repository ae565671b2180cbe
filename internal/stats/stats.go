// Package stats provides lightweight statistics collectors used throughout
// the simulator: counters, running means, histograms and time-weighted
// occupancy trackers. All collectors are plain values with no locking; the
// simulator is single-threaded per run and the experiment harness runs whole
// simulations in parallel, never sharing collectors.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Mean accumulates a running arithmetic mean.
type Mean struct {
	sum   float64
	count uint64
}

// Add folds a sample into the mean.
func (m *Mean) Add(v float64) {
	m.sum += v
	m.count++
}

// Value returns the current mean, or 0 if no samples were added.
func (m *Mean) Value() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Sum returns the sum of all samples.
func (m *Mean) Sum() float64 { return m.sum }

// Count returns the number of samples.
func (m *Mean) Count() uint64 { return m.count }

// Merge folds another Mean into m.
func (m *Mean) Merge(o Mean) {
	m.sum += o.sum
	m.count += o.count
}

// MarshalJSON encodes the internal accumulators (not the derived mean) so
// encoded results round-trip bit-exactly — the golden-file and equivalence
// tests compare encoded bytes.
func (m Mean) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"Sum":%s,"Count":%d}`,
		strconv.FormatFloat(m.sum, 'g', -1, 64), m.count)), nil
}

// UnmarshalJSON restores the accumulators written by MarshalJSON.
func (m *Mean) UnmarshalJSON(data []byte) error {
	var aux struct {
		Sum   float64
		Count uint64
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	m.sum, m.count = aux.Sum, aux.Count
	return nil
}

// NewTimeWeightedAt returns a TimeWeighted whose observation window starts
// at time now with the given level (used when resetting stats mid-run).
func NewTimeWeightedAt(level float64, now int64) TimeWeighted {
	return TimeWeighted{level: level, lastTime: now}
}

// TimeWeighted tracks the time-average of a level signal (such as queue
// occupancy): call Set whenever the level changes, then Average at the end.
type TimeWeighted struct {
	level    float64
	lastTime int64
	weighted float64
	span     int64
}

// Set records that the level changed to v at time now.
func (t *TimeWeighted) Set(v float64, now int64) {
	dt := now - t.lastTime
	if dt > 0 {
		t.weighted += t.level * float64(dt)
		t.span += dt
	}
	t.level = v
	t.lastTime = now
}

// Finish closes the observation window at time now.
func (t *TimeWeighted) Finish(now int64) { t.Set(t.level, now) }

// Average returns the time-weighted average level.
func (t *TimeWeighted) Average() float64 {
	if t.span == 0 {
		return t.level
	}
	return t.weighted / float64(t.span)
}

// Series is a compact time series: (time, value) pairs in parallel slices,
// appended in non-decreasing time order. It is the storage behind the
// observability registry's per-interval metric snapshots; Reserve lets a
// caller pre-size it so that steady-state appends never allocate (the
// registry's sampling hot path relies on that).
type Series struct {
	t []int64
	v []float64
}

// Reserve grows the series' capacity to hold at least n total samples.
func (s *Series) Reserve(n int) {
	if cap(s.t) < n {
		t := make([]int64, len(s.t), n)
		copy(t, s.t)
		s.t = t
	}
	if cap(s.v) < n {
		v := make([]float64, len(s.v), n)
		copy(v, s.v)
		s.v = v
	}
}

// Append records value v at time t.
func (s *Series) Append(t int64, v float64) {
	s.t = append(s.t, t)
	s.v = append(s.v, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.t) }

// Time returns the i-th sample's time.
func (s *Series) Time(i int) int64 { return s.t[i] }

// Value returns the i-th sample's value.
func (s *Series) Value(i int) float64 { return s.v[i] }

// Last returns the most recent sample, or (0, 0) for an empty series.
func (s *Series) Last() (int64, float64) {
	if len(s.t) == 0 {
		return 0, 0
	}
	return s.t[len(s.t)-1], s.v[len(s.v)-1]
}

// Values returns the underlying value slice (not a copy; callers must not
// append to it).
func (s *Series) Values() []float64 { return s.v }

// GeoMean returns the geometric mean of xs, ignoring non-positive entries
// the way architecture papers do when normalising IPC (a non-positive value
// would make the product meaningless). Returns 0 for an empty or all-invalid
// slice.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Table is a minimal fixed-column table used by the experiment harness to
// print figure data: as a Markdown pipe table (String) or as CSV.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table as a Markdown pipe table whose columns are
// padded to align in a terminal too; a '|' inside a cell is escaped.
func (t *Table) String() string {
	rows := append([][]string{t.header}, t.rows...)
	widths := make([]int, len(t.header))
	for r, row := range rows {
		esc := make([]string, len(row))
		for i, c := range row {
			esc[i] = strings.ReplaceAll(c, "|", `\|`)
			widths[i] = max(widths[i], len(esc[i]))
		}
		rows[r] = esc
	}
	var b strings.Builder
	for r, row := range rows {
		for i, c := range row {
			fmt.Fprintf(&b, "| %-*s ", widths[i], c)
		}
		b.WriteString("|\n")
		if r == 0 {
			for _, w := range widths {
				b.WriteString("|" + strings.Repeat("-", w+2))
			}
			b.WriteString("|\n")
		}
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row first; cells with
// commas or quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// SortedKeys returns the keys of m in ascending order; used to iterate maps
// deterministically when printing.
func SortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
