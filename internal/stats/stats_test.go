package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean should be 0")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 || m.Count() != 2 || m.Sum() != 6 {
		t.Fatalf("mean=%v count=%d sum=%v", m.Value(), m.Count(), m.Sum())
	}
}

func TestMeanMerge(t *testing.T) {
	var a, b Mean
	a.Add(1)
	a.Add(3)
	b.Add(5)
	a.Merge(b)
	if a.Value() != 3 || a.Count() != 3 {
		t.Fatalf("merged mean=%v count=%d", a.Value(), a.Count())
	}
}

func TestMeanMatchesNaiveQuick(t *testing.T) {
	f := func(vals []float64) bool {
		var m Mean
		var sum float64
		ok := 0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue // avoid overflow artefacts unrelated to Mean
			}
			m.Add(v)
			sum += v
			ok++
		}
		if ok == 0 {
			return m.Value() == 0
		}
		want := sum / float64(ok)
		return math.Abs(m.Value()-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Set(2, 0)  // level 2 from t=0
	tw.Set(4, 10) // level 4 from t=10
	tw.Finish(20)
	// avg = (2*10 + 4*10) / 20 = 3
	if got := tw.Average(); got != 3 {
		t.Fatalf("average = %v, want 3", got)
	}
}

func TestTimeWeightedAt(t *testing.T) {
	tw := NewTimeWeightedAt(5, 100)
	tw.Finish(110)
	if got := tw.Average(); got != 5 {
		t.Fatalf("average = %v, want 5", got)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v, want 0", g)
	}
	if g := GeoMean([]float64{0, -1}); g != 0 {
		t.Fatalf("geomean of non-positives = %v, want 0", g)
	}
	// Non-positive values are skipped, not zeroing the result.
	if g := GeoMean([]float64{0, 4}); g != 4 {
		t.Fatalf("geomean(0,4) = %v, want 4", g)
	}
}

func TestGeoMeanBetweenMinMaxQuick(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if v > 0 && !math.IsInf(v, 0) && v < 1e100 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		g := GeoMean(xs)
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2.50")
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("sorted keys = %v", keys)
	}
	mi := map[int]string{3: "x", 1: "y"}
	ki := SortedKeys(mi)
	if ki[0] != 1 || ki[1] != 3 {
		t.Fatalf("sorted int keys = %v", ki)
	}
}
