package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func (r *report) find(workload string, trace int) *runResult {
	for _, x := range r.Runs {
		if x.Workload == workload && x.Trace == trace {
			return x
		}
	}
	return nil
}

// exactDiffs lists where two reports of one seed disagree on what must
// repeat bit for bit: result digests and the exact metrics.
func exactDiffs(a, b *report) []string {
	var diffs []string
	for _, ra := range a.Runs {
		rb := b.find(ra.Workload, ra.Trace)
		if rb == nil {
			continue
		}
		if ra.ResultDigest != rb.ResultDigest {
			diffs = append(diffs, fmt.Sprintf("%s trace=%d: result_digest %.12s != %.12s", ra.Workload, ra.Trace, ra.ResultDigest, rb.ResultDigest))
		}
		if ra.Trace != 1 {
			continue
		}
		for _, d := range perLayer {
			if d.Exact && ra.Metrics[d.Name].Value != rb.Metrics[d.Name].Value {
				diffs = append(diffs, fmt.Sprintf("%s: %s %v != %v", ra.Workload, d.Name, ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value))
			}
		}
	}
	return diffs
}

// expectDigests fails unless rep repeats the earlier report at path on
// every simulated statistic. A change that alters the model on purpose
// does not pass it, by design.
func expectDigests(w io.Writer, path string, rep *report) error {
	prev, err := loadReport(path)
	if err != nil {
		return err
	}
	if prev.Seed != rep.Seed || prev.Quick != rep.Quick {
		return fmt.Errorf("-expect-digests: %s was taken with seed %d quick=%v, this run with seed %d quick=%v", path, prev.Seed, prev.Quick, rep.Seed, rep.Quick)
	}
	diffs := exactDiffs(prev, rep)
	for _, d := range diffs {
		fmt.Fprintln(w, "differs:", d)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("-expect-digests: %d simulated statistics differ from %s", len(diffs), path)
	}
	fmt.Fprintf(w, "expect-digests: every result digest and exact metric equals %s\n", path)
	return nil
}

// quartiles are Python's statistics.quantiles(xs, n=4): the driver's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// compareReports prints, per workload and end-to-end metric, both sets'
// medians, how much worse the second is, the bound, and a verdict.
func compareReports(w io.Writer, aFiles, bFiles []string) error {
	load := func(files []string) ([]*report, error) {
		var reps []*report
		for _, f := range files {
			r, err := loadReport(f)
			if err != nil {
				return nil, err
			}
			reps = append(reps, r)
		}
		return reps, nil
	}
	as, err := load(aFiles)
	if err != nil {
		return err
	}
	bs, err := load(bFiles)
	if err != nil {
		return err
	}
	values := func(reps []*report, workload, metric string) []float64 {
		var xs []float64
		for _, r := range reps {
			if run := r.find(workload, 0); run != nil {
				xs = append(xs, run.Metrics[metric].Value)
			}
		}
		return xs
	}

	fmt.Fprintf(w, "%-20s %-20s %12s %12s %8s %7s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "worse%", "A iqr%", "B iqr%", "bound%", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := values(as, wl.Name, d.Name), values(bs, wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(a), spread(b)
			verdict := "within"
			switch {
			case worse > d.Bound:
				verdict = "worse"
			case (sa > d.Bound || sb > d.Bound) && !allBetter(a, b, d.Better):
				verdict = "unresolved"
			}
			if verdict != "within" {
				bad++
			}
			fmt.Fprintf(w, "%-20s %-20s %12.5g %12.5g %+8.1f %7.1f %7.1f %6.0f  %s\n", wl.Name, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}

	// Reports of one seed must agree exactly on every simulated statistic.
	var diffs []string
	all := append(append([]*report(nil), as...), bs...)
	for _, r := range all[1:] {
		if r.Seed == all[0].Seed && r.Quick == all[0].Quick {
			diffs = append(diffs, exactDiffs(all[0], r)...)
		}
	}
	for _, d := range diffs {
		fmt.Fprintln(w, "differs:", d)
	}
	if bad > 0 || len(diffs) > 0 {
		return fmt.Errorf("%d metric(s) not within their bound, %d exact value(s) differ", bad, len(diffs))
	}
	fmt.Fprintln(w, "every end-to-end metric is within its bound; result digests and exact metrics of equal seeds are identical")
	return nil
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
