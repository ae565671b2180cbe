package noc

import (
	"fmt"
	"math"
	"slices"
)

// NIMode selects the network-interface / injection architecture at a node
// (paper §4 and §6.2 scheme list).
type NIMode uint8

const (
	// NIBaseline is the enhanced baseline of §4.1: wide MC→NI and NI→queue
	// links (a whole packet enters the single NI injection queue in one
	// cycle), narrow NI→router link (one flit per cycle into one of the
	// injection-port VCs chosen by the NI).
	NIBaseline NIMode = iota
	// NISplit is the ARI supply architecture: the NI queue is split into
	// one one-packet-capable queue per injection VC, each with its own
	// narrow link wired directly to that VC, so up to VCs flits enter the
	// injection port per cycle.
	NISplit
	// NIMultiPort is the MultiPort scheme of Bakhoda et al. [3]: the router
	// has several injection input ports (each a full input port with its
	// own switch-port), but the NI still supplies at most one flit per
	// cycle in total, so injection is consumption-improved only.
	NIMultiPort
)

// String returns the mode name.
func (m NIMode) String() string {
	switch m {
	case NIBaseline:
		return "baseline"
	case NISplit:
		return "split"
	case NIMultiPort:
		return "multiport"
	default:
		return fmt.Sprintf("NIMode(%d)", uint8(m))
	}
}

// NodeConfig is a node's injection architecture. The zero value is the
// enhanced baseline (one injection port, no crossbar speedup).
type NodeConfig struct {
	NI NIMode
	// InjPorts is the number of injection input ports (>= 1). Values > 1
	// are the MultiPort scheme.
	InjPorts int
	// InjSpeedup is the crossbar speedup S of each injection port (§4.2):
	// the number of switch-ports the injection port owns. 1 = baseline.
	// Values above the VC count are clamped (eq. 2).
	InjSpeedup int
}

// maxInjPorts bounds NodeConfig.InjPorts so a router's input ports (the
// mesh ports plus the injection ports) fit one uint32 mask.
const maxInjPorts = 32 - NumDirections

// Validate checks the limits a node's injection architecture must meet.
func (nc NodeConfig) Validate() error {
	if nc.InjPorts > maxInjPorts {
		return fmt.Errorf("%d injection ports, at most %d supported", nc.InjPorts, maxInjPorts)
	}
	return nil
}

// Ports returns the node's injection input ports (at least 1).
func (nc NodeConfig) Ports() int {
	if nc.InjPorts < 1 {
		return 1
	}
	return nc.InjPorts
}

// Speedup returns the switch-ports each injection port owns on a network of
// vcs VCs: at least 1, at most vcs (eq. 2: no benefit beyond NVC).
func (nc NodeConfig) Speedup(vcs int) int {
	return min(max(nc.InjSpeedup, 1), vcs)
}

// Config describes one network (the request and reply networks are two
// independent Config/Network instances).
type Config struct {
	Mesh Mesh

	// VCs is the number of virtual channels per router port (Table I: 4).
	// Each VC buffers exactly one long packet (Table I): LongPacketFlits.
	VCs int
	// LinkBits is the link (flit) width in bits (Table I: 128).
	LinkBits int
	// DataBytes is the payload of long packets in bytes (128B cache line).
	DataBytes int

	// Routing selects XY or minimal-adaptive routing. VC allocation is
	// non-atomic (WPF [28]) under both, as the paper runs them (§6.2).
	Routing RoutingAlgo

	// NIQueueFlits is the total NI injection queue capacity in flits
	// (Table I: 36 = four 9-flit long packets at 128-bit links; 0 means
	// four long packets), at most 65 535. Split NIs divide the same total
	// across VCs for fair comparison (§6.2).
	NIQueueFlits int

	// PriorityLevels enables the ARI multi-level prioritisation (§5) when
	// >= 2. Packets are generated at level PriorityLevels-1 and decremented
	// at each route computation. 0 or 1 disables priority arbitration.
	PriorityLevels int
	// StarvationLimit is the wait threshold (cycles) after which injection
	// priority is suppressed at a router (§5; 1k cycles in the paper).
	StarvationLimit int64

	// MCNodes lists the memory-controller nodes (distinct, any order): each
	// gets the injection architecture MC, and its router reports as an MC
	// router. Every other node is the enhanced baseline, the zero
	// NodeConfig.
	MCNodes []int
	// MC is the injection architecture of every node in MCNodes.
	MC NodeConfig
}

// Validate checks invariants and fills defaults; it returns the normalised
// config, MCNodes sorted.
func (c Config) Validate() (Config, error) {
	if c.Mesh.Width <= 0 || c.Mesh.Height <= 0 {
		return c, fmt.Errorf("noc: mesh %dx%d invalid", c.Mesh.Width, c.Mesh.Height)
	}
	if c.VCs <= 0 {
		return c, fmt.Errorf("noc: VCs must be positive, got %d", c.VCs)
	}
	if c.VCs > 32 {
		return c, fmt.Errorf("noc: at most 32 VCs supported, got %d", c.VCs)
	}
	if c.LinkBits < 8 {
		return c, fmt.Errorf("noc: link width %d bits too narrow", c.LinkBits)
	}
	if c.DataBytes <= 0 {
		return c, fmt.Errorf("noc: DataBytes must be positive, got %d", c.DataBytes)
	}
	longPkt := c.LongPacketFlits()
	if longPkt > maxPacketFlits {
		return c, fmt.Errorf("noc: a %d-flit long packet exceeds the %d flits a flit's seq can index", longPkt, maxPacketFlits)
	}
	if c.NIQueueFlits == 0 {
		// Four long packets, as far as a packet ring holds: only a long
		// packet above 16 383 flits meets the cap.
		c.NIQueueFlits = min(4*longPkt, maxRingFlits)
	}
	if c.NIQueueFlits < longPkt {
		return c, fmt.Errorf("noc: NI queue %d flits cannot hold a %d-flit packet", c.NIQueueFlits, longPkt)
	}
	if c.NIQueueFlits > maxRingFlits {
		return c, fmt.Errorf("noc: NI queue %d flits exceeds the %d a packet ring holds", c.NIQueueFlits, maxRingFlits)
	}
	if c.PriorityLevels > math.MaxInt16+1 {
		// A VC captures the arriving priority in an int16 (inputVC.effPrio).
		return c, fmt.Errorf("noc: at most %d priority levels supported, got %d", math.MaxInt16+1, c.PriorityLevels)
	}
	if c.StarvationLimit <= 0 {
		c.StarvationLimit = 1000
	}
	if err := c.MC.Validate(); err != nil {
		return c, fmt.Errorf("noc: MC nodes: %w", err)
	}
	// A port names its neighbour by an int32 node id.
	if c.Mesh.Width > math.MaxInt32/c.Mesh.Height {
		return c, fmt.Errorf("noc: mesh %dx%d has more nodes than an int32 names", c.Mesh.Width, c.Mesh.Height)
	}
	c.MCNodes = slices.Clone(c.MCNodes)
	slices.Sort(c.MCNodes)
	for i, n := range c.MCNodes {
		if n < 0 || n >= c.Mesh.Nodes() {
			return c, fmt.Errorf("noc: MC node %d outside the %d-node mesh", n, c.Mesh.Nodes())
		}
		if i > 0 && c.MCNodes[i-1] == n {
			return c, fmt.Errorf("noc: MC node %d listed twice", n)
		}
	}
	// A ring names its storage by an int32 offset into its fabric's slab.
	if b := c.buffers(); max(b.flits, b.laneFlits) > math.MaxInt32 {
		return c, fmt.Errorf("noc: %d flits of buffering exceed a ring offset's range", max(b.flits, b.laneFlits))
	}
	return c, nil
}

// eachNode calls f for every node id in ascending order with the node's
// injection architecture and whether it is an MC node. c must be validated,
// so that MCNodes is sorted.
func (c *Config) eachNode(f func(id int, nc NodeConfig, mc bool)) {
	mcs := c.MCNodes
	for id := range c.Mesh.Nodes() {
		if len(mcs) > 0 && mcs[0] == id {
			mcs = mcs[1:]
			f(id, c.MC, true)
		} else {
			f(id, NodeConfig{}, false)
		}
	}
}

// bufferCounts is the storage a fabric built from a Config carves from its
// slabs: a mesh's ports, VCs, staging slots, rings, int32 words and flits of
// ring capacity (one handle slot each), and the DA2mesh overlay's NI lanes
// and their flits.
type bufferCounts struct {
	inPorts, sps, staged, rings, int32s, flits int
	lanes, laneFlits                           int
}

// buffers counts a fabric's storage in closed form. A node is one of two
// kinds, baseline or MC, and within a kind nodes differ only in their
// mesh-edge ports: the 2(W+H) input ports with no link, whose VCs get no
// ring. c's defaults must be filled (Validate).
func (c *Config) buffers() bufferCounts {
	var b bufferCounts
	mcs := len(c.MCNodes)
	b.add(c, NodeConfig{}, c.Mesh.Nodes()-mcs)
	b.add(c, c.MC, mcs)
	b.flits -= 2 * (c.Mesh.Width + c.Mesh.Height) * c.VCs * c.LongPacketFlits()
	return b
}

// add counts k nodes of architecture nc, each with every mesh port linked.
func (b *bufferCounts) add(c *Config, nc NodeConfig, k int) {
	numIn := NumDirections + nc.Ports()
	b.inPorts += k * numIn
	b.sps += k * (NumDirections + nc.Ports()*nc.Speedup(c.VCs))
	// Router input staging plus the ejector's one flit per cycle.
	b.staged += k * (stagedCap(nc, c.VCs) + 1)
	// A long packet per router and ejector VC and the NI queue(s); ejector
	// VC rings and a split NI's queue rings.
	niq, rings := c.NIQueueFlits, c.VCs
	if nc.NI == NISplit {
		niq, rings = c.VCs*splitQueueFlits(c), 2*c.VCs
	}
	b.flits += k * ((numIn+1)*c.VCs*c.LongPacketFlits() + niq)
	b.rings += k * rings
	// Output creditIn slots, the NI's injection-VC credits, the router's
	// switch-port offsets, the ejector's front packet sizes and a split
	// NI's.
	b.int32s += k * ((numOutPorts+nc.Ports()+1)*c.VCs + numIn + 1)
	if nc.NI == NISplit {
		b.int32s += k * c.VCs
	}
	lanes, per := overlayLanes(c, nc)
	b.lanes += k * lanes
	b.laneFlits += k * lanes * per
}

// LongPacketFlits returns the flit count of long packets under this config:
// the depth of every VC buffer and the longest packet a fabric accepts.
func (c *Config) LongPacketFlits() int {
	return PacketSize(ReadReply, c.LinkBits, c.DataBytes)
}
