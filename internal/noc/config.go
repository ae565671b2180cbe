package noc

import (
	"fmt"
	"math"
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
	// NINarrowLink is the *default* (unenhanced) baseline of GPGPU-Sim the
	// paper starts from (§4.1): the MC->NI link is narrow, so handing a
	// packet to the NI occupies the link for Size cycles instead of one.
	// The paper replaces it with NIBaseline "to avoid giving unfair
	// advantage to our proposed design"; this mode exists so that choice
	// can be quantified.
	NINarrowLink
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
	case NINarrowLink:
		return "narrowlink"
	default:
		return fmt.Sprintf("NIMode(%d)", uint8(m))
	}
}

// NodeConfig is the per-node injection architecture. The zero value is the
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

func (nc NodeConfig) injPorts() int {
	if nc.InjPorts < 1 {
		return 1
	}
	return nc.InjPorts
}

func (nc NodeConfig) injSpeedup(vcs int) int {
	s := nc.InjSpeedup
	if s < 1 {
		s = 1
	}
	if s > vcs {
		s = vcs // eq. (2): no benefit beyond NVC switch-ports
	}
	return s
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
	// (Table I: 36 = four 9-flit long packets at 128-bit links). Split NIs
	// divide the same total across VCs for fair comparison (§6.2).
	NIQueueFlits int
	// EjectRate is how many flits per cycle the ejection NI consumes.
	EjectRate int

	// PriorityLevels enables the ARI multi-level prioritisation (§5) when
	// >= 2. Packets are generated at level PriorityLevels-1 and decremented
	// at each route computation. 0 or 1 disables priority arbitration.
	PriorityLevels int
	// StarvationLimit is the wait threshold (cycles) after which injection
	// priority is suppressed at a router (§5; 1k cycles in the paper).
	StarvationLimit int64

	// RetransBufPkts, when positive, enables the fault-recovery protocol
	// layer (recovery.go): sending NIs stamp a CRC over each packet, retain
	// up to RetransBufPkts unacknowledged packets for retransmission, and
	// receiving NIs drop-and-NACK corrupted packets instead of delivering
	// them. 0 (default) disables recovery: corruption, if injected, is
	// delivered undetected — the unprotected-network contrast case.
	RetransBufPkts int

	// Nodes optionally overrides the injection architecture per node id.
	// Missing/zero entries are the enhanced baseline.
	Nodes []NodeConfig
}

// Validate checks invariants and fills defaults; it returns the normalised
// config.
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
		c.NIQueueFlits = 4 * longPkt
	}
	if c.NIQueueFlits < longPkt {
		return c, fmt.Errorf("noc: NI queue %d flits cannot hold a %d-flit packet", c.NIQueueFlits, longPkt)
	}
	if c.EjectRate <= 0 {
		c.EjectRate = 1
	}
	if c.PriorityLevels > math.MaxInt16+1 {
		// A VC captures the arriving priority in an int16 (inputVC.effPrio).
		return c, fmt.Errorf("noc: at most %d priority levels supported, got %d", math.MaxInt16+1, c.PriorityLevels)
	}
	if c.StarvationLimit <= 0 {
		c.StarvationLimit = 1000
	}
	if c.RetransBufPkts < 0 {
		return c, fmt.Errorf("noc: RetransBufPkts must be >= 0, got %d", c.RetransBufPkts)
	}
	if c.Nodes != nil && len(c.Nodes) != c.Mesh.Nodes() {
		return c, fmt.Errorf("noc: Nodes has %d entries for a %d-node mesh", len(c.Nodes), c.Mesh.Nodes())
	}
	for id, nc := range c.Nodes {
		if nc.InjPorts > maxInjPorts {
			return c, fmt.Errorf("noc: node %d has %d injection ports, at most %d supported", id, nc.InjPorts, maxInjPorts)
		}
	}
	return c, nil
}

// node returns the per-node config (zero value when not overridden).
func (c *Config) node(id int) NodeConfig {
	if c.Nodes == nil {
		return NodeConfig{}
	}
	return c.Nodes[id]
}

// LongPacketFlits returns the flit count of long packets under this config:
// the depth of every VC buffer and the longest packet a fabric accepts.
func (c *Config) LongPacketFlits() int {
	return PacketSize(ReadReply, c.LinkBits, c.DataBytes)
}
