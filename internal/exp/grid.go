package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Point is one column of a Grid: a label (the figure's table header for
// that column) and an edit of the Runner's Base configuration.
type Point struct {
	Label string
	Edit  func(*core.Config)
}

// Grid runs every kernel under every point — kernels × points jobs in one
// RunAll dispatch, so a (kernel, config) pair any figure already ran is
// recalled, not re-simulated — and returns res[k][p]: kernels[k] under
// points[p].
func (r *Runner) Grid(kernels []trace.Kernel, points []Point) ([][]core.Result, error) {
	jobs := make([]Job, 0, len(kernels)*len(points))
	for _, k := range kernels {
		for _, p := range points {
			cfg := r.Base
			p.Edit(&cfg)
			jobs = append(jobs, Job{Cfg: cfg, Kernel: k})
		}
	}
	flat, err := r.RunAll(jobs)
	if err != nil {
		return nil, err
	}
	res := make([][]core.Result, len(kernels))
	for k := range res {
		res[k] = flat[k*len(points) : (k+1)*len(points) : (k+1)*len(points)]
	}
	return res, nil
}

// SchemePoints returns one point per scheme, labelled with its name.
func SchemePoints(schemes ...core.Scheme) []Point {
	points := make([]Point, len(schemes))
	for i, s := range schemes {
		points[i] = scheme(s.String(), s)
	}
	return points
}

// scheme is the point that runs Base under s, labelled label.
func scheme(label string, s core.Scheme) Point {
	return Point{Label: label, Edit: func(c *core.Config) { c.Scheme = s }}
}

// kernelsNamed resolves benchmark names to their kernels, in order.
func kernelsNamed(names ...string) ([]trace.Kernel, error) {
	kernels := make([]trace.Kernel, len(names))
	for i, name := range names {
		k, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		kernels[i] = k
	}
	return kernels, nil
}

// normalised tabulates metric over a kernel × point grid relative to the
// first point: one row per kernel of metric(res[k][p]) / metric(res[k][0]),
// then, unless agg is nil, a row labelled aggName whose cells are agg over
// each column. It returns the table, the normalised columns and their
// aggregates.
func normalised(kernels []trace.Kernel, points []Point, res [][]core.Result,
	metric func(core.Result) float64, aggName string, agg func([]float64) float64,
) (*stats.Table, [][]float64, []float64) {
	header := []string{"benchmark"}
	for _, p := range points {
		header = append(header, p.Label)
	}
	t := stats.NewTable(header...)
	cols := make([][]float64, len(points))
	for k, kernel := range kernels {
		base := metric(res[k][0])
		row := []string{kernel.Name}
		for p := range points {
			v := safeDiv(metric(res[k][p]), base)
			cols[p] = append(cols[p], v)
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(row...)
	}
	if agg == nil {
		return t, cols, nil
	}
	aggs := make([]float64, len(points))
	row := []string{aggName}
	for p := range points {
		aggs[p] = agg(cols[p])
		row = append(row, fmt.Sprintf("%.3f", aggs[p]))
	}
	t.AddRow(row...)
	return t, cols, aggs
}

// ipcOf is the metric of the IPC figures.
func ipcOf(res core.Result) float64 { return res.IPC }
