package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/noc"
)

// Axis is one swept design parameter: the values a sweep visits and the
// point that sets the parameter to one of them. Point edits only the
// parameter, so a figure composes it with its scheme.
type Axis struct {
	Name   string
	Values []int
	Point  func(v int) Point
}

// Axes is every swept parameter, defined once: arisweep's -param resolves
// here, and Figs 6 (niqueue), 9 (priolevels), 15 (vcs) and §7.5 (mesh) take
// their columns from the same rows.
var Axes = []Axis{
	newAxis("speedup", "S=%d", []int{1, 2, 3, 4}, func(c *core.Config, v int) { c.InjSpeedup = v }),
	// The speedup cannot exceed the VC count (eq. 2), so it is capped at v:
	// from Base's 4 that is Fig 15's 2VC/S=2 and 4VC/S=4, and 8VC keeps S=4.
	newAxis("vcs", "%dVC", []int{1, 2, 4, 8}, func(c *core.Config, v int) { c.VCs, c.InjSpeedup = v, min(c.InjSpeedup, v) }),
	newAxis("replink", "%db", []int{64, 128, 256, 512}, func(c *core.Config, v int) { c.RepLinkBits = v }),
	// A v×v mesh keeps Base's MC count (Table I: 8), as §7.5 does, so the
	// CC:MC ratio — the few-to-many intensity — grows with the mesh.
	newAxis("mesh", "%[1]dx%[1]d", []int{4, 6, 8}, func(c *core.Config, v int) { c.MeshWidth, c.MeshHeight = v, v }),
	// NI queue capacity in long (read-reply) packets of the edited config.
	newAxis("niqueue", "%dpkt", []int{4, 12, 28, 50, 80}, func(c *core.Config, v int) {
		c.NIQueueFlits = v * noc.PacketSize(noc.ReadReply, c.RepLinkBits, c.DataBytes)
	}),
	newAxis("starvation", "%d", []int{100, 1000, 10000, 100000}, func(c *core.Config, v int) { c.StarvationLimit = int64(v) }),
	newAxis("priolevels", "L=%d", []int{1, 2, 3, 4, 5, 6}, func(c *core.Config, v int) { c.PriorityLevels = v }),
}

// newAxis is the axis whose point for v is labelled fmt.Sprintf(format, v)
// and applies set(c, v).
func newAxis(name, format string, values []int, set func(c *core.Config, v int)) Axis {
	return Axis{name, values, func(v int) Point {
		return Point{fmt.Sprintf(format, v), func(c *core.Config) { set(c, v) }}
	}}
}

// AxisNamed returns the axis called name; the error for an unknown name
// lists every axis.
func AxisNamed(name string) (Axis, error) {
	names := make([]string, len(Axes))
	for i, a := range Axes {
		if a.Name == name {
			return a, nil
		}
		names[i] = a.Name
	}
	return Axis{}, fmt.Errorf("unknown axis %q (want %s)", name, strings.Join(names, " | "))
}

// axis is AxisNamed for the figures, which name only axes that exist.
func axis(name string) Axis {
	a, err := AxisNamed(name)
	if err != nil {
		panic(err)
	}
	return a
}
