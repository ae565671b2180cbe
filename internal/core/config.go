// Package core assembles the full simulated GPGPU of the ARI paper: SIMT
// compute nodes and memory-controller nodes on a shared 2D mesh, connected
// by separate request and reply networks, with the evaluated injection
// schemes (enhanced baseline, ARI, MultiPort, DA2mesh) wired per Table I.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
)

// Scheme identifies one evaluated configuration (paper §6.2 and Fig 10's
// ablations).
type Scheme int

const (
	// XYBaseline: XY routing with the enhanced baseline NI (§4.1).
	XYBaseline Scheme = iota
	// XYARI: XY routing with the full ARI design.
	XYARI
	// AdaBaseline: minimal adaptive routing, enhanced baseline NI.
	AdaBaseline
	// AdaMultiPort: adaptive routing with the MultiPort scheme [3].
	AdaMultiPort
	// AdaARI: adaptive routing with the full ARI design.
	AdaARI
	// AccSupply: ARI's supply acceleration only (split NI, no speedup,
	// no priority) — Fig 10.
	AccSupply
	// AccConsume: ARI's consumption acceleration only (baseline NI,
	// injection-port speedup) — Fig 10.
	AccConsume
	// AccBothNoPriority: supply + consumption without prioritisation.
	AccBothNoPriority
	// DA2MeshBase: reply network replaced by the DA2mesh overlay [20].
	DA2MeshBase
	// DA2MeshARI: DA2mesh overlay with ARI's NI architecture on top.
	DA2MeshARI
	numSchemes
)

// NumSchemes is the number of defined schemes.
const NumSchemes = int(numSchemes)

// String returns the paper's label for the scheme.
func (s Scheme) String() string {
	switch s {
	case XYBaseline:
		return "XY-Baseline"
	case XYARI:
		return "XY-ARI"
	case AdaBaseline:
		return "Ada-Baseline"
	case AdaMultiPort:
		return "Ada-MultiPort"
	case AdaARI:
		return "Ada-ARI"
	case AccSupply:
		return "Acc-Supply"
	case AccConsume:
		return "Acc-Consume"
	case AccBothNoPriority:
		return "Acc-Both-NoPriority"
	case DA2MeshBase:
		return "DA2Mesh"
	case DA2MeshARI:
		return "DA2Mesh+ARI"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme resolves a paper label (e.g. "Ada-ARI", matched without
// regard to case) to its Scheme.
func ParseScheme(s string) (Scheme, error) {
	for sch := Scheme(0); sch < numSchemes; sch++ {
		if strings.EqualFold(sch.String(), s) {
			return sch, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", s)
}

// Routing returns the routing algorithm the scheme uses.
func (s Scheme) Routing() noc.RoutingAlgo {
	switch s {
	case XYBaseline, XYARI:
		return noc.RouteXY
	default:
		return noc.RouteMinAdaptive
	}
}

// The scheme predicates below are the one seam through which both the layers
// that build the system (NewSimulator) and those that model it
// (internal/analytic) read what a Scheme means.

// UsesOverlay reports whether the reply fabric is the DA2mesh overlay.
func (s Scheme) UsesOverlay() bool { return s == DA2MeshBase || s == DA2MeshARI }

// HasSplitNI reports whether the scheme accelerates injection supply with
// ARI's per-VC split NI queues.
func (s Scheme) HasSplitNI() bool {
	switch s {
	case XYARI, AdaARI, AccSupply, AccBothNoPriority, DA2MeshARI:
		return true
	}
	return false
}

// HasSpeedup reports whether the scheme accelerates injection consumption
// with crossbar speedup (§4.2).
func (s Scheme) HasSpeedup() bool {
	switch s {
	case XYARI, AdaARI, AccConsume, AccBothNoPriority, DA2MeshARI:
		return true
	}
	return false
}

// HasPriority reports whether the scheme uses ARI's multi-level injection
// prioritisation (§5).
func (s Scheme) HasPriority() bool {
	switch s {
	case XYARI, AdaARI, DA2MeshARI:
		return true
	}
	return false
}

// IsMultiPort reports whether the scheme is the MultiPort baseline [3].
func (s Scheme) IsMultiPort() bool { return s == AdaMultiPort }

// Config is the full-system configuration; DefaultConfig matches Table I.
type Config struct {
	MeshWidth  int
	MeshHeight int
	NumMC      int

	VCs         int
	ReqLinkBits int
	RepLinkBits int
	DataBytes   int

	Scheme Scheme
	// PriorityLevels used when the scheme has priority (Fig 9 varies it).
	PriorityLevels int
	// InjSpeedup for speedup-enabled schemes; 0 selects the paper's choice
	// of 4 (bound of eq. 2 on a mesh).
	InjSpeedup int
	// StarvationLimit is the §5 anti-starvation threshold in cycles
	// (0 = the paper's 1k).
	StarvationLimit int64
	// IdealReply replaces the reply network with an unlimited-bandwidth
	// fabric — the paper's instrument for measuring the ideal packet
	// injection rate that sizes the crossbar speedup (eq. 1, §4.2).
	IdealReply bool
	// EdgeMCPlacement switches from the paper's diamond placement [1] to a
	// naive perimeter clustering (placement ablation; Table I's baseline
	// uses diamond).
	EdgeMCPlacement bool
	// UnenhancedBaseline reverts §4.1's enhancement: MC nodes whose scheme
	// leaves them on the baseline NI get the original narrow MC->NI link
	// (a packet occupies it for Size cycles). Quantifies why the paper
	// evaluates against the enhanced baseline.
	UnenhancedBaseline bool
	// MultiPortPorts is the injection-port count of the MultiPort scheme.
	MultiPortPorts int

	// NIQueueFlits sizes the reply-side NI injection queues; 0 = 4 long
	// packets (Table I: 36 flits at 128-bit links).
	NIQueueFlits int
	EjectRate    int

	// RetransBufPkts enables the NoC fault-recovery protocol layer (CRC
	// detection, NACK/ACK sideband, bounded retransmission — noc/recovery.go)
	// on both mesh networks, sized to this many unacknowledged packets per
	// NI. 0 leaves recovery off unless Fault.CorruptProb > 0, in which case
	// it defaults to 8 — corruption without recovery would deliver silently
	// wrong packets, which ScheduleFaults refuses.
	RetransBufPkts int

	Core gpu.Config
	MC   mem.MCConfig

	// Clock ratios relative to the 1 GHz NoC clock (Table I).
	CoreClockNum, CoreClockDen uint64
	MemClockNum, MemClockDen   uint64

	Seed          uint64
	WarmupCycles  int64
	MeasureCycles int64

	// Fault configures deterministic, seeded NoC fault injection (stalls,
	// freezes, NI bursts, corruption, link death — see noc/fault.go).
	// Fault.Seed 0 inherits Seed. Faults apply to the mesh networks;
	// schemes whose reply fabric is the DA2mesh overlay or the ideal fabric
	// get request-side faults only.
	Fault noc.FaultConfig
}

// DefaultConfig returns the Table I configuration: 6x6 mesh, 28 compute
// nodes + 8 MCs (diamond placement), 4 VCs x 1 packet, 128-bit links,
// 1126 MHz cores / 1 GHz NoC / 1.75 GHz GDDR5.
func DefaultConfig() Config {
	return Config{
		MeshWidth:      6,
		MeshHeight:     6,
		NumMC:          8,
		VCs:            4,
		ReqLinkBits:    128,
		RepLinkBits:    128,
		DataBytes:      128,
		Scheme:         XYBaseline,
		PriorityLevels: 2,
		InjSpeedup:     4,
		MultiPortPorts: 2,
		EjectRate:      1,
		Core:           gpu.DefaultConfig(),
		MC:             mem.DefaultMCConfig(),
		CoreClockNum:   1126,
		CoreClockDen:   1000,
		MemClockNum:    1750,
		MemClockDen:    1000,
		Seed:           1,
		WarmupCycles:   4000,
		MeasureCycles:  20000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MeshWidth <= 0 || c.MeshHeight <= 0 {
		return fmt.Errorf("core: invalid mesh %dx%d", c.MeshWidth, c.MeshHeight)
	}
	// Bound the dimensions so nodes = W*H cannot overflow int (and absurd
	// meshes fail fast instead of exhausting memory).
	const maxMeshDim = 4096
	if c.MeshWidth > maxMeshDim || c.MeshHeight > maxMeshDim {
		return fmt.Errorf("core: mesh %dx%d exceeds the %d-per-side limit",
			c.MeshWidth, c.MeshHeight, maxMeshDim)
	}
	nodes := c.MeshWidth * c.MeshHeight
	if c.NumMC <= 0 || c.NumMC >= nodes {
		return fmt.Errorf("core: NumMC %d must be in (0, %d)", c.NumMC, nodes)
	}
	mcs := c.MCPlacement()
	slices.Sort(mcs)
	if distinct := len(slices.Compact(mcs)); distinct < c.NumMC {
		placement := "diamond"
		if c.EdgeMCPlacement {
			placement = "edge"
		}
		return fmt.Errorf("core: NumMC %d exceeds the %d distinct nodes the %s placement finds on a %dx%d mesh",
			c.NumMC, distinct, placement, c.MeshWidth, c.MeshHeight)
	}
	if c.Scheme < 0 || int(c.Scheme) >= NumSchemes {
		return fmt.Errorf("core: unknown scheme %d", c.Scheme)
	}
	if c.CoreClockNum == 0 || c.CoreClockDen == 0 || c.MemClockNum == 0 || c.MemClockDen == 0 {
		return fmt.Errorf("core: clock ratios must be positive")
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 {
		return fmt.Errorf("core: invalid horizon warmup=%d measure=%d", c.WarmupCycles, c.MeasureCycles)
	}
	if c.RetransBufPkts < 0 {
		return fmt.Errorf("core: RetransBufPkts %d must be >= 0", c.RetransBufPkts)
	}
	if c.Fault.Enabled {
		if _, err := c.Fault.Validate(); err != nil {
			return err
		}
	}
	return c.Core.Validate()
}

// MCPlacement returns the memory-controller node ids of c's mesh: the
// diamond placement, or the perimeter spread under EdgeMCPlacement.
// Validate requires NumMC distinct ones.
func (c Config) MCPlacement() []int {
	mesh := noc.Mesh{Width: c.MeshWidth, Height: c.MeshHeight}
	if c.EdgeMCPlacement {
		return noc.EdgeMCPlacement(mesh, c.NumMC)
	}
	return noc.DiamondMCPlacement(mesh, c.NumMC)
}

// ChooseSpeedup implements the paper's speedup sizing (§4.2): the minimal
// integer S satisfying eq. (1) S >= injRate x avgFlitsPerPkt, clamped by
// eq. (2) S <= min(nOut, nVC).
func ChooseSpeedup(pktInjRatePerCycle, avgFlitsPerPkt float64, nOut, nVC int) int {
	need := pktInjRatePerCycle * avgFlitsPerPkt
	s := int(need)
	if float64(s) < need {
		s++
	}
	if s < 1 {
		s = 1
	}
	bound := nOut
	if nVC < bound {
		bound = nVC
	}
	if s > bound {
		s = bound
	}
	return s
}
