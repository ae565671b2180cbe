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

// routeCandidate is one admissible output port produced by route
// computation. Its admissible downstream VCs follow from its position in the
// candidate list (candidateMask).
type routeCandidate struct {
	port int8 // output port index (Direction, or ejection port)
}

// maskAll returns a VC mask with the low n bits set.
func maskAll(n int) uint32 { return (1 << uint(n)) - 1 }

// candidateMask returns the downstream VCs admissible on the i-th of a
// packet's route candidates among vcs VCs: every VC on the first, which
// computeRoute orders as the XY-preferred port (the only one carrying the
// escape VC 0), and the adaptive VCs 1..vcs-1 on a second. With a single VC
// there is no adaptive class, so a second candidate takes that VC too.
func candidateMask(i, vcs int) uint32 {
	if i == 0 || vcs <= 1 {
		return maskAll(vcs)
	}
	return maskAll(vcs) &^ 1
}

// computeRoute returns the admissible output candidates for a packet at the
// router of node `here` heading to pkt.Dst. The ejection port is returned
// when the packet has arrived. Candidates are ordered deterministically: the
// XY-preferred port first (it is the only one carrying the escape VC), then
// the other productive direction.
func computeRoute(m Mesh, algo RoutingAlgo, here, dst int, scratch []routeCandidate) []routeCandidate {
	scratch = scratch[:0]
	if here == dst {
		return append(scratch, routeCandidate{port: int8(ejectPortIndex)})
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

	// Minimal adaptive routing also admits the other productive direction,
	// on the adaptive VCs only; XY, or a packet with one productive
	// dimension left, has the XY direction alone.
	scratch = append(scratch, routeCandidate{port: int8(xyDir)})
	if algo == RouteMinAdaptive && hasX && hasY {
		scratch = append(scratch, routeCandidate{port: int8(yDir)})
	}
	return scratch
}
