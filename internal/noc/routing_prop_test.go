package noc

import (
	"testing"

	"repro/internal/rng"
)

// routeOnce copies computeRoute's candidates so two route computations can
// be compared (computeRoute reuses its scratch slice).
func routeOnce(m Mesh, algo RoutingAlgo, here, dst, vcs int) []routeCandidate {
	var scratch []routeCandidate
	return append([]routeCandidate(nil), computeRoute(m, algo, here, dst, vcs, scratch)...)
}

// randomMesh draws a mesh shape and a (src, dst) pair.
func randomMesh(r *rng.Source) (Mesh, int, int) {
	m := Mesh{Width: 2 + r.Intn(7), Height: 2 + r.Intn(7)}
	return m, r.Intn(m.Nodes()), r.Intn(m.Nodes())
}

// TestXYRouteMinimalAndOrdered checks the two defining properties of
// dimension-order routing on random meshes and endpoint pairs: the walk is
// minimal (exactly Hops(src,dst) steps, every step productive) and X-then-Y
// ordered (no X move after the first Y move).
func TestXYRouteMinimalAndOrdered(t *testing.T) {
	r := rng.New(0xA11CE)
	for trial := 0; trial < 2000; trial++ {
		m, src, dst := randomMesh(r)
		here, steps, movedY := src, 0, false
		for here != dst {
			cands := routeOnce(m, RouteXY, here, dst, 4)
			if len(cands) != 1 {
				t.Fatalf("mesh %dx%d %d->%d at %d: XY gave %d candidates, want 1",
					m.Width, m.Height, src, dst, here, len(cands))
			}
			dir := Direction(cands[0].port)
			if cands[0].vcMask != maskAll(4) {
				t.Fatalf("XY candidate restricts VCs: mask %#x", cands[0].vcMask)
			}
			if dir == North || dir == South {
				movedY = true
			} else if movedY {
				t.Fatalf("mesh %dx%d %d->%d: X move (%v) after a Y move",
					m.Width, m.Height, src, dst, dir)
			}
			next := m.Neighbor(here, dir)
			if next < 0 {
				t.Fatalf("XY routed off the mesh edge at node %d toward %v", here, dir)
			}
			if m.Hops(next, dst) != m.Hops(here, dst)-1 {
				t.Fatalf("unproductive XY hop %d->%d (dst %d)", here, next, dst)
			}
			here = next
			if steps++; steps > m.Nodes() {
				t.Fatalf("XY walk %d->%d did not terminate", src, dst)
			}
		}
		if steps != m.Hops(src, dst) {
			t.Fatalf("XY walk %d->%d took %d steps, minimal is %d",
				src, dst, steps, m.Hops(src, dst))
		}
		arrived := routeOnce(m, RouteXY, dst, dst, 4)
		if len(arrived) != 1 || int(arrived[0].port) != ejectPortIndex {
			t.Fatalf("arrived packet not routed to the ejection port: %+v", arrived)
		}
	}
}

// TestAdaptiveRouteMinimalProductive checks minimal-adaptive routing:
// every candidate is a productive direction (so any adaptive choice
// sequence is exactly Hops(src,dst) long — never more than minimal), masks
// stay within the VC count, and a random walk over the candidate sets
// terminates minimally.
func TestAdaptiveRouteMinimalProductive(t *testing.T) {
	r := rng.New(0xB0B1)
	for trial := 0; trial < 2000; trial++ {
		m, src, dst := randomMesh(r)
		vcs := 2 + r.Intn(3)
		here, steps := src, 0
		for here != dst {
			cands := routeOnce(m, RouteMinAdaptive, here, dst, vcs)
			if len(cands) == 0 {
				t.Fatalf("no adaptive candidates at %d toward %d", here, dst)
			}
			for _, c := range cands {
				if c.vcMask == 0 || c.vcMask&^maskAll(vcs) != 0 {
					t.Fatalf("candidate mask %#x invalid for %d VCs", c.vcMask, vcs)
				}
				next := m.Neighbor(here, Direction(c.port))
				if next < 0 {
					t.Fatalf("adaptive candidate leaves the mesh at %d toward %v", here, Direction(c.port))
				}
				if m.Hops(next, dst) != m.Hops(here, dst)-1 {
					t.Fatalf("unproductive adaptive candidate %d->%d (dst %d)", here, next, dst)
				}
			}
			pick := cands[r.Intn(len(cands))]
			here = m.Neighbor(here, Direction(pick.port))
			if steps++; steps > m.Nodes() {
				t.Fatalf("adaptive walk %d->%d did not terminate", src, dst)
			}
		}
		if steps != m.Hops(src, dst) {
			t.Fatalf("adaptive walk %d->%d took %d steps, minimal is %d",
				src, dst, steps, m.Hops(src, dst))
		}
	}
}

// TestAdaptiveEscapeVCFollowsXY checks the deadlock-freedom discipline of
// the escape VC (paper §6.2): VC 0 is admissible only on the XY-preferred
// output, so the escape subnetwork routes exactly like dimension-order XY —
// which is cycle-free — and a packet restricted to escape candidates
// traces the identical node sequence as RouteXY.
func TestAdaptiveEscapeVCFollowsXY(t *testing.T) {
	r := rng.New(0xE5CA9E)
	for trial := 0; trial < 2000; trial++ {
		m, src, dst := randomMesh(r)
		vcs := 2 + r.Intn(3)
		here := src
		for here != dst {
			cands := routeOnce(m, RouteMinAdaptive, here, dst, vcs)
			xy := routeOnce(m, RouteXY, here, dst, vcs)[0]

			var escapePorts []int
			for i, c := range cands {
				if c.vcMask&1 != 0 {
					escapePorts = append(escapePorts, int(c.port))
					if i != 0 {
						t.Fatalf("escape candidate not ordered first at %d toward %d", here, dst)
					}
				}
			}
			if len(escapePorts) != 1 || escapePorts[0] != int(xy.port) {
				t.Fatalf("escape VC admissible on %v at %d toward %d, want only XY port %v",
					escapePorts, here, dst, Direction(xy.port))
			}
			here = m.Neighbor(here, Direction(escapePorts[0]))
		}
	}
}
