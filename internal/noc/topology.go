package noc

import "fmt"

// Direction indexes the four mesh ports of a router, in fixed order.
type Direction int

// Mesh port directions. LocalPort is the first local (injection/ejection)
// port index; routers may have several local input ports (MultiPort).
const (
	North Direction = iota
	East
	South
	West
	numDirections
)

// NumDirections is the number of mesh directions (4 for a 2D mesh).
const NumDirections = int(numDirections)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// opposite returns the direction a flit arrives from when sent toward d.
func (d Direction) opposite() Direction {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	default:
		return East
	}
}

// Mesh describes a Width x Height 2D mesh. Node i sits at
// (i % Width, i / Width); x grows East, y grows South.
type Mesh struct {
	Width, Height int
}

// Nodes returns the number of nodes (= routers) in the mesh.
func (m Mesh) Nodes() int { return m.Width * m.Height }

// Coord returns the (x, y) coordinate of node id.
func (m Mesh) Coord(id int) (x, y int) { return id % m.Width, id / m.Width }

// ID returns the node id at coordinate (x, y).
func (m Mesh) ID(x, y int) int { return y*m.Width + x }

// Valid reports whether (x, y) is inside the mesh.
func (m Mesh) Valid(x, y int) bool {
	return x >= 0 && x < m.Width && y >= 0 && y < m.Height
}

// Neighbor returns the node id adjacent to id in direction d, or -1 when id
// is on that edge of the mesh.
func (m Mesh) Neighbor(id int, d Direction) int {
	x, y := m.Coord(id)
	switch d {
	case North:
		y--
	case South:
		y++
	case East:
		x++
	case West:
		x--
	}
	if !m.Valid(x, y) {
		return -1
	}
	return m.ID(x, y)
}

// Hops returns the minimal hop count between nodes a and b.
func (m Mesh) Hops(a, b int) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// BisectionLinks returns the number of unidirectional links crossing the
// vertical bisection of the mesh (paper §3 uses 12 for a 6x6 mesh: 6 rows x
// 2 directions).
func (m Mesh) BisectionLinks() int { return 2 * m.Height }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// DiamondMCPlacement returns the memory-controller node ids for a mesh,
// following the diamond placement of Abts et al. [1] used by the paper to
// build a competitive baseline: MCs sit on the mesh edges, spread
// symmetrically so no two share a row or column hotspot. Supported
// configurations match the paper's evaluation: 8 MCs on 6x6 and 8x8, 4 MCs
// on 4x4. Other shapes fall back to an even edge spread.
func DiamondMCPlacement(m Mesh, numMC int) []int {
	type xy struct{ x, y int }
	var coords []xy
	switch {
	case m.Width == 6 && m.Height == 6 && numMC == 8:
		// Point-symmetric lattice spread through the mesh, following the
		// staggered "diamond" idea of Abts et al.: no row/column clusters,
		// so MC-to-CC traffic does not share edge corridors.
		coords = []xy{
			{2, 0}, {5, 1}, {0, 2}, {3, 2},
			{2, 3}, {5, 3}, {0, 4}, {3, 5},
		}
	case m.Width == 8 && m.Height == 8 && numMC == 8:
		coords = []xy{
			{3, 0}, {7, 1}, {1, 2}, {5, 3},
			{2, 4}, {6, 5}, {0, 6}, {4, 7},
		}
	case m.Width == 4 && m.Height == 4 && numMC == 4:
		coords = []xy{
			{1, 0}, {3, 1}, {0, 2}, {2, 3},
		}
	default:
		return evenEdgePlacement(m, numMC)
	}
	ids := make([]int, len(coords))
	for i, c := range coords {
		ids[i] = m.ID(c.x, c.y)
	}
	return ids
}

// evenEdgePlacement spreads numMC nodes evenly along the mesh perimeter,
// clockwise from the top-left corner. It is the fallback for mesh shapes
// the paper does not evaluate.
func evenEdgePlacement(m Mesh, numMC int) []int {
	perimeter := make([]int, 0, 2*m.Width+2*m.Height-4)
	for x := 0; x < m.Width; x++ {
		perimeter = append(perimeter, m.ID(x, 0))
	}
	for y := 1; y < m.Height; y++ {
		perimeter = append(perimeter, m.ID(m.Width-1, y))
	}
	for x := m.Width - 2; x >= 0; x-- {
		perimeter = append(perimeter, m.ID(x, m.Height-1))
	}
	for y := m.Height - 2; y >= 1; y-- {
		perimeter = append(perimeter, m.ID(0, y))
	}
	if numMC > len(perimeter) {
		numMC = len(perimeter)
	}
	ids := make([]int, 0, numMC)
	for i := 0; i < numMC; i++ {
		ids = append(ids, perimeter[i*len(perimeter)/numMC])
	}
	return ids
}
