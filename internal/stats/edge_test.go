package stats

import (
	"math"
	"testing"
)

// TestEmptyCollectors locks the zero-sample behaviour of every collector:
// empty means a defined zero, never NaN or a panic — simulation horizons
// short enough to deliver no packets still produce printable results.
func TestEmptyCollectors(t *testing.T) {
	var m Mean
	if v := m.Value(); v != 0 {
		t.Errorf("empty Mean.Value = %v, want 0", v)
	}
	if m.Sum() != 0 || m.Count() != 0 {
		t.Errorf("empty Mean sum/count = %v/%v, want 0/0", m.Sum(), m.Count())
	}

	var s Series
	if s.Len() != 0 {
		t.Errorf("empty Series.Len = %d", s.Len())
	}
	if tm, v := s.Last(); tm != 0 || v != 0 {
		t.Errorf("empty Series.Last = (%d, %v), want (0, 0)", tm, v)
	}

	var tw TimeWeighted
	if v := tw.Average(); v != 0 {
		t.Errorf("empty TimeWeighted.Average = %v, want 0", v)
	}
}

// TestTimeWeightedWarmupReset locks the warmup-reset delta semantics: a
// collector rebuilt with NewTimeWeightedAt at the reset point must measure
// only the post-reset window, carrying the level across the reset — the
// mid-run stats reset every network performs at warmup end.
func TestTimeWeightedWarmupReset(t *testing.T) {
	for _, tc := range []struct {
		name        string
		level       float64 // level at the reset point
		resetAt     int64
		sets        [][2]float64 // (value, time) after reset
		finish      int64
		wantAvg     float64
		wantZeroDur bool // window of zero length: average falls back to level
	}{
		{
			name: "level carries across reset", level: 3, resetAt: 1000,
			sets: nil, finish: 1100, wantAvg: 3,
		},
		{
			name: "post-reset window only", level: 2, resetAt: 1000,
			sets: [][2]float64{{6, 1050}}, finish: 1100,
			// 2 for 50 cycles, then 6 for 50 cycles.
			wantAvg: 4,
		},
		{
			name: "zero-length window reports current level", level: 5, resetAt: 1000,
			sets: nil, finish: 1000, wantAvg: 5, wantZeroDur: true,
		},
		{
			name: "same-time sets keep last value", level: 1, resetAt: 0,
			sets: [][2]float64{{9, 50}, {2, 50}}, finish: 100,
			// 1 for 50 cycles, then 2 for 50 (the 9 lasted zero time)...
			wantAvg: 1.5,
		},
	} {
		tw := NewTimeWeightedAt(tc.level, tc.resetAt)
		for _, sv := range tc.sets {
			tw.Set(sv[0], int64(sv[1]))
		}
		tw.Finish(tc.finish)
		if got := tw.Average(); math.Abs(got-tc.wantAvg) > 1e-12 {
			t.Errorf("%s: Average = %v, want %v", tc.name, got, tc.wantAvg)
		}
	}
}

// TestGeoMeanEdges locks GeoMean's ignore-non-positive contract on the
// degenerate inputs figure code can produce.
func TestGeoMeanEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"nil", nil, 0},
		{"empty", []float64{}, 0},
		{"all non-positive", []float64{0, -1, -2}, 0},
		{"single", []float64{7}, 7},
		{"ignores zeros", []float64{0, 4, 9, 0}, 6},
	} {
		if got := GeoMean(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: GeoMean = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMeanJSONRoundTripEdges locks the bit-exact accumulator round trip on
// awkward values (the golden files compare encoded bytes).
func TestMeanJSONRoundTripEdges(t *testing.T) {
	for _, add := range [][]float64{
		nil,
		{0},
		{1e-300, 1e300},
		{0.1, 0.2, 0.3},
	} {
		var m Mean
		for _, v := range add {
			m.Add(v)
		}
		data, err := m.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Mean
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.Sum() != m.Sum() || back.Count() != m.Count() {
			t.Errorf("round trip of %v: sum/count %v/%v -> %v/%v",
				add, m.Sum(), m.Count(), back.Sum(), back.Count())
		}
	}
}
