package noc

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// walkBuffers is the reference for Config.buffers: each node's slab
// elements and overlay lanes summed one node at a time, the node's mesh-edge
// ports found by asking the mesh for its neighbours.
func walkBuffers(c *Config) bufferCounts {
	isMC := make([]bool, c.Mesh.Nodes())
	for _, n := range c.MCNodes {
		isMC[n] = true
	}
	long := c.LongPacketFlits()
	var b bufferCounts
	for id, mc := range isMC {
		var nc NodeConfig
		if mc {
			nc = c.MC
		}
		numIn := NumDirections + nc.Ports()
		b.inPorts += numIn
		b.sps += NumDirections + nc.Ports()*nc.Speedup(c.VCs)
		b.staged += NumDirections + nc.Ports()*c.VCs + 1
		fed := numIn + 1
		for d := Direction(0); d < Direction(NumDirections); d++ {
			if c.Mesh.Neighbor(id, d) < 0 {
				fed--
			}
		}
		b.flits += fed * c.VCs * long
		b.rings += c.VCs
		switch nc.NI {
		case NISplit:
			b.rings += c.VCs
			b.flits += c.VCs * splitQueueFlits(c)
			b.lanes += c.VCs
			b.laneFlits += c.VCs * splitQueueFlits(c)
		case NIMultiPort:
			b.flits += c.NIQueueFlits
			b.lanes += nc.Ports()
			b.laneFlits += nc.Ports() * c.NIQueueFlits
		default:
			b.flits += c.NIQueueFlits
			b.lanes++
			b.laneFlits += c.NIQueueFlits
		}
		b.int32s += (numOutPorts+nc.Ports())*c.VCs + numIn + 1
		b.int32s += c.VCs // the ejector's front packet sizes
		if nc.NI == NISplit {
			b.int32s += c.VCs // the split queues' front packet sizes
		}
	}
	return b
}

// TestBuffersMatchWalk holds the closed-form buffer count to the per-node
// walk over random meshes of 1–64 nodes a side, MC sets from none to every
// node, 1–32 VCs, link and packet widths, every NI mode, speedups and port
// counts, and Validate's int32 verdict to the walk's flit totals.
func TestBuffersMatchWalk(t *testing.T) {
	r := rng.New(50)
	modes := []NIMode{NIBaseline, NISplit, NIMultiPort}
	refused := 0
	for i := 0; i < 600; i++ {
		mesh := Mesh{Width: 1 + r.Intn(64), Height: 1 + r.Intn(64)}
		var mcs []int
		switch i % 4 {
		case 1:
			mcs = []int{r.Intn(mesh.Nodes())}
		case 2:
			mcs = everyKth(mesh, 1)
		case 3:
			perm := make([]int, mesh.Nodes())
			r.Perm(perm)
			mcs = perm[:r.Intn(len(perm)+1)]
		}
		cfg := Config{
			Mesh:      mesh,
			VCs:       1 + r.Intn(32),
			LinkBits:  8 << r.Intn(6),
			DataBytes: 1 + r.Intn(64<<r.Intn(9)),
			MCNodes:   mcs,
			MC: NodeConfig{
				NI:         modes[r.Intn(len(modes))],
				InjPorts:   r.Intn(maxInjPorts + 1),
				InjSpeedup: r.Intn(40),
			},
		}
		if r.Bool(0.5) {
			cfg.NIQueueFlits = cfg.LongPacketFlits() + r.Intn(200)
		}
		v, err := cfg.Validate()
		if err != nil {
			refused++
		}
		want := walkBuffers(&v)
		if got := v.buffers(); got != want {
			t.Fatalf("case %d, %+v: closed form %+v, walk %+v", i, cfg, got, want)
		}
		if fits := max(want.flits, want.laneFlits) <= math.MaxInt32; fits != (err == nil) {
			t.Fatalf("case %d: walk counts %d mesh and %d lane flits, Validate: %v", i, want.flits, want.laneFlits, err)
		}
	}
	if refused == 0 || refused == 600 {
		t.Fatalf("Validate refused %d of 600 configs: the int32 bound went untested on one side", refused)
	}
}
