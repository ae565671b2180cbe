package noc

import "sort"

// Fault-adaptive routing. Once any mesh link is permanently dead
// (killLink), routing abandons the configured algorithm entirely and
// follows a per-(router, destination) next-hop table computed over the
// surviving topology. A local detour rule cannot work here: under
// dimension-ordered routing a packet detoured around a dead column link is
// immediately routed back by the healthy neighbour, and the resulting
// ping-pong fills buffers in a cycle and deadlocks (observed in the chaos
// soak). The table gives every router the non-local knowledge the detour
// needs, and its construction makes the whole network deadlock-free:
//
// Up*/down* routing. Take the undirected graph of mesh links alive in
// BOTH directions (killLink's connectivity guard keeps it connected), BFS
// it from node 0 and order nodes by (BFS level, id). An edge toward a
// smaller node in this order is an "up" edge, toward a larger one a
// "down" edge. Every table path is a (possibly empty) run of up edges
// followed by a (possibly empty) run of down edges — never up after down —
// so the channel dependency graph is acyclic and wormhole routing over the
// table cannot deadlock, on any VC, for any fault pattern the guard
// admits [the classic Autonet argument].
//
// The table realises that shape with a suffix-consistent greedy rule, so
// per-hop table lookups compose into exactly the paths the construction
// promises:
//
//   - a node with a pure-down path to the destination always takes its
//     shortest such path (next hop = down neighbour one step closer);
//     down steps stay inside the pure-down region, so once a packet turns
//     downward it never climbs again;
//   - any other node climbs: it takes the up edge minimising the total
//     remaining cost (climb + descent). Up edges strictly descend the
//     (level, id) order, so the climb terminates — at worst at node 0,
//     which reaches every destination downward along the BFS tree.
//
// Paths are minimal within this discipline, not globally; the premium is
// the price of deadlock freedom and only paid while links are dead.
// Routing admits every VC on every hop — no escape-VC split is
// needed because the table itself is the deadlock-free layer.
//
// The table is rebuilt on every successful kill (serial, between cycles)
// and every router's reroute flag is raised so packets already waiting on a
// computed route re-route through the new table (router.routeCompute).

// ftableEject marks the here == dst entry (packets eject, never look it up).
const ftableEject = 0xFF

// biAlive reports whether node u's mesh link in direction d exists and is
// alive in both directions.
func (n *Network) biAlive(u int, d Direction) bool {
	op := &n.routers[u].out[d]
	if op.dest < 0 || op.dead {
		return false
	}
	rev := &n.routers[op.dest].out[d.opposite()]
	return rev.dest >= 0 && !rev.dead
}

// aliveBiConnected reports whether the undirected graph of mesh links alive
// in both directions still connects every node. This is killLink's guard:
// it is (deliberately) stronger than strong connectivity of the alive
// digraph, because the fault-routing table only uses bidirectionally-alive
// links — a node whose every neighbour link is half-dead would be
// unroutable even though some one-way path exists.
func (n *Network) aliveBiConnected() bool {
	nodes := len(n.routers)
	seen := make([]bool, nodes)
	queue := make([]int, 0, nodes)
	seen[0] = true
	queue = append(queue, 0)
	count := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		count++
		for d := Direction(0); d < Direction(NumDirections); d++ {
			if !n.biAlive(u, d) {
				continue
			}
			v := n.cfg.Mesh.Neighbor(u, d)
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return count == nodes
}

// rebuildFaultTable recomputes the up*/down* next-hop table (see the
// package comment above). Called after every successful killLink, on a
// graph aliveBiConnected has just vetted.
func (n *Network) rebuildFaultTable() {
	m := n.cfg.Mesh
	nodes := m.Nodes()

	// BFS levels from node 0 over bidirectionally-alive edges.
	level := make([]int, nodes)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0
	queue := make([]int, 0, nodes)
	queue = append(queue, 0)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for d := Direction(0); d < Direction(NumDirections); d++ {
			if !n.biAlive(u, d) {
				continue
			}
			if v := m.Neighbor(u, d); level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for _, l := range level {
		if l < 0 {
			panic("noc: fault-routing table on a disconnected alive graph")
		}
	}

	// before reports v < u in the (level, id) order; an edge u->v with
	// before(v, u) is an up edge, with before(u, v) a down edge.
	before := func(v, u int) bool {
		return level[v] < level[u] || (level[v] == level[u] && v < u)
	}

	// Nodes in ascending (level, id) order: the up-phase DP below needs
	// every up neighbour (strictly smaller) computed first.
	order := make([]int, nodes)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return before(order[a], order[b]) })

	const inf = int(^uint(0) >> 1)
	tbl := make([]uint8, nodes*nodes)
	downDist := make([]int, nodes)
	cost := make([]int, nodes)
	for dst := 0; dst < nodes; dst++ {
		// Pure-down distance to dst: reverse BFS along down edges.
		for i := range downDist {
			downDist[i] = inf
		}
		downDist[dst] = 0
		queue = queue[:0]
		queue = append(queue, dst)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for d := Direction(0); d < Direction(NumDirections); d++ {
				if !n.biAlive(v, d) {
					continue
				}
				// biAlive is symmetric, so this also vets the u->v edge.
				if u := m.Neighbor(v, d); before(u, v) && downDist[u] == inf {
					downDist[u] = downDist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		// Total remaining cost: a down-capable node descends; anyone else
		// climbs to the cheapest down-capable ancestor.
		for _, u := range order {
			c := downDist[u]
			if c == inf {
				for d := Direction(0); d < Direction(NumDirections); d++ {
					if !n.biAlive(u, d) {
						continue
					}
					if v := m.Neighbor(u, d); before(v, u) && cost[v] != inf && 1+cost[v] < c {
						c = 1 + cost[v]
					}
				}
			}
			cost[u] = c
		}
		// Next hops, tie-broken by lowest direction index.
		for u := 0; u < nodes; u++ {
			if u == dst {
				tbl[u*nodes+dst] = ftableEject
				continue
			}
			best, bestCost := -1, inf
			for d := Direction(0); d < Direction(NumDirections); d++ {
				if !n.biAlive(u, d) {
					continue
				}
				v := m.Neighbor(u, d)
				var c int
				switch {
				case downDist[u] < inf:
					// Descend only: stay on the shortest pure-down path.
					if !before(u, v) || downDist[v] != downDist[u]-1 {
						continue
					}
					c = downDist[v]
				case before(v, u) && cost[v] != inf:
					c = 1 + cost[v]
				default:
					continue // down edge from a climb-phase node: illegal turn
				}
				if c < bestCost {
					best, bestCost = int(d), c
				}
			}
			if best < 0 {
				panic("noc: fault-routing table has no next hop; connectivity guard violated")
			}
			tbl[u*nodes+dst] = uint8(best)
		}
	}
	n.ftable = tbl
}

// routeCandidates is route computation's entry point: the configured
// algorithm while the mesh is healthy, the fault-routing table as soon as
// any link is dead. A table route is a single candidate, which takes every
// VC (candidateMask) — the table is itself the deadlock-free layer, so no
// escape VC needs reserving.
func (n *Network) routeCandidates(here, dst int, scratch []routeCandidate) []routeCandidate {
	if n.ftable == nil {
		return computeRoute(n.cfg.Mesh, n.cfg.Routing, here, dst, scratch)
	}
	port := int8(ejectPortIndex)
	if here != dst {
		port = int8(n.ftable[here*n.cfg.Mesh.Nodes()+dst])
	}
	return append(scratch[:0], routeCandidate{port: port})
}
