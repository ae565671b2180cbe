package noc

// RoutingAlgo selects the routing algorithm for a network (Table I: XY and
// minimal adaptive).
type RoutingAlgo uint8

const (
	// RouteXY is deterministic dimension-order (X then Y) routing.
	RouteXY RoutingAlgo = iota
	// RouteMinAdaptive is minimal fully-adaptive routing with an escape
	// virtual channel (VC 0) restricted to the XY path, enabled for
	// deadlock freedom by whole-packet forwarding (WPF [28], paper §6.2).
	RouteMinAdaptive
)

// String returns the algorithm name used in the paper's scheme labels.
func (r RoutingAlgo) String() string {
	if r == RouteXY {
		return "XY"
	}
	return "Ada"
}

// routeCandidate is one admissible (output port, downstream VC set) choice
// produced by route computation.
type routeCandidate struct {
	vcMask uint32 // bit v set => downstream VC v admissible
	port   int8   // output port index (Direction, or ejection port)
}

// maskAll returns a VC mask with the low n bits set.
func maskAll(n int) uint32 { return (1 << uint(n)) - 1 }

// maskNoEscape returns a VC mask with bits 1..n-1 set (escape VC excluded).
// With a single VC there is no adaptive class, so the full mask is returned.
func maskNoEscape(n int) uint32 {
	if n <= 1 {
		return maskAll(n)
	}
	return maskAll(n) &^ 1
}

// computeRoute returns the admissible output candidates for a packet at the
// router of node `here` heading to pkt.Dst, on a healthy mesh. The ejection
// port is returned when the packet has arrived. Candidates are ordered
// deterministically: the XY-preferred port first (it is the only one
// carrying the escape VC), then the other productive direction.
//
// computeRoute assumes every link is alive; the moment any mesh link dies
// permanently, routing switches to the fault-adaptive up*/down* table
// instead (Network.routeCandidates, ftable.go).
func computeRoute(m Mesh, algo RoutingAlgo, here, dst, vcs int, scratch []routeCandidate) []routeCandidate {
	scratch = scratch[:0]
	if here == dst {
		return append(scratch, routeCandidate{port: int8(ejectPortIndex), vcMask: maskAll(vcs)})
	}
	hx, hy := m.Coord(here)
	dx, dy := m.Coord(dst)

	var xDir, yDir Direction
	hasX, hasY := dx != hx, dy != hy
	if dx > hx {
		xDir = East
	} else if dx < hx {
		xDir = West
	}
	if dy > hy {
		yDir = South
	} else if dy < hy {
		yDir = North
	}

	// The XY-preferred next hop: reduce X first, then Y.
	xyDir := yDir
	if hasX {
		xyDir = xDir
	}

	if algo == RouteXY {
		return append(scratch, routeCandidate{port: int8(xyDir), vcMask: maskAll(vcs)})
	}

	// Minimal adaptive: every productive direction is admissible on the
	// adaptive VCs; the escape VC is additionally admissible on the XY
	// direction only.
	if hasX && hasY {
		other := yDir
		if xyDir == yDir {
			other = xDir
		}
		scratch = append(scratch, routeCandidate{port: int8(xyDir), vcMask: maskNoEscape(vcs) | 1})
		scratch = append(scratch, routeCandidate{port: int8(other), vcMask: maskNoEscape(vcs)})
		return scratch
	}
	// Only one productive dimension left: it is the XY direction.
	return append(scratch, routeCandidate{port: int8(xyDir), vcMask: maskAll(vcs)})
}
