// Package core assembles the full simulated GPGPU of the ARI paper: SIMT
// compute nodes and memory-controller nodes on a shared 2D mesh, connected
// by separate request and reply networks, with the evaluated injection
// schemes (enhanced baseline, ARI, MultiPort, DA2mesh) wired per Table I.
package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/trace"
)

// Scheme identifies one evaluated configuration (paper §6.2 and Fig 10's
// ablations): a label over its row of the scheme table, which says what
// each one composes.
type Scheme int

// The schemes, in table order.
const (
	XYBaseline Scheme = iota
	XYARI
	AdaBaseline
	AdaMultiPort
	AdaARI
	AccSupply
	AccConsume
	AccBothNoPriority
	DA2MeshBase
	DA2MeshARI
	numSchemes
)

// NumSchemes is the number of defined schemes.
const NumSchemes = int(numSchemes)

// Mechanisms is one scheme's row of the scheme table: the routing and the
// reply-side mechanisms it composes at every MC node. Fig 10 builds ARI from
// three of them (split-NI supply, injection-port speedup, multi-level
// priority) and its ablations switch them off one at a time.
type Mechanisms struct {
	Label   string
	Routing noc.RoutingAlgo
	// NI is the MC nodes' reply NI: noc.NIBaseline, noc.NISplit (ARI's
	// supply acceleration) or noc.NIMultiPort (the MultiPort scheme [3]).
	NI noc.NIMode
	// Speedup gives the MC injection ports crossbar speedup (§4.2).
	Speedup bool
	// Priority turns on ARI's multi-level injection priority (§5).
	Priority bool
	// Overlay replaces the reply mesh with the DA2mesh overlay [20].
	Overlay bool
}

// schemes is the scheme table, one row per Scheme.
var schemes = [numSchemes]Mechanisms{
	XYBaseline:        {Label: "XY-Baseline", Routing: noc.RouteXY},
	XYARI:             {Label: "XY-ARI", Routing: noc.RouteXY, NI: noc.NISplit, Speedup: true, Priority: true},
	AdaBaseline:       {Label: "Ada-Baseline", Routing: noc.RouteMinAdaptive},
	AdaMultiPort:      {Label: "Ada-MultiPort", Routing: noc.RouteMinAdaptive, NI: noc.NIMultiPort},
	AdaARI:            {Label: "Ada-ARI", Routing: noc.RouteMinAdaptive, NI: noc.NISplit, Speedup: true, Priority: true},
	AccSupply:         {Label: "Acc-Supply", Routing: noc.RouteMinAdaptive, NI: noc.NISplit},
	AccConsume:        {Label: "Acc-Consume", Routing: noc.RouteMinAdaptive, Speedup: true},
	AccBothNoPriority: {Label: "Acc-Both-NoPriority", Routing: noc.RouteMinAdaptive, NI: noc.NISplit, Speedup: true},
	DA2MeshBase:       {Label: "DA2Mesh", Routing: noc.RouteMinAdaptive, Overlay: true},
	DA2MeshARI:        {Label: "DA2Mesh+ARI", Routing: noc.RouteMinAdaptive, NI: noc.NISplit, Speedup: true, Priority: true, Overlay: true},
}

// Mechanisms returns the scheme's row of the scheme table (the zero row for
// an undefined scheme, which Config.Validate rejects).
func (s Scheme) Mechanisms() Mechanisms {
	if s < 0 || s >= numSchemes {
		return Mechanisms{}
	}
	return schemes[s]
}

// String returns the paper's label for the scheme.
func (s Scheme) String() string {
	if m := s.Mechanisms(); m.Label != "" {
		return m.Label
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme resolves a paper label (e.g. "Ada-ARI", matched without
// regard to case) to its Scheme.
func ParseScheme(s string) (Scheme, error) {
	for sch, m := range schemes {
		if strings.EqualFold(m.Label, s) {
			return Scheme(sch), nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", s)
}

// Routing returns the routing algorithm the scheme uses.
func (s Scheme) Routing() noc.RoutingAlgo { return s.Mechanisms().Routing }

// multiPortPorts is the injection-port count of the MultiPort scheme [3]
// at every MC node.
const multiPortPorts = 2

// Config is the full-system configuration; DefaultConfig matches Table I.
type Config struct {
	MeshWidth  int
	MeshHeight int
	NumMC      int

	VCs         int
	ReqLinkBits int
	RepLinkBits int

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

	// NIQueueFlits sizes the reply-side NI injection queues; 0 = 4 long
	// packets (Table I: 36 flits at 128-bit links).
	NIQueueFlits int

	Core gpu.Config
	MC   mem.MCConfig

	// Clock ratios relative to the 1 GHz NoC clock (Table I).
	CoreClockNum, CoreClockDen uint64
	MemClockNum, MemClockDen   uint64

	Seed          uint64
	WarmupCycles  int64
	MeasureCycles int64
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
		Scheme:         XYBaseline,
		PriorityLevels: 2,
		InjSpeedup:     4,
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
		return fmt.Errorf("core: NumMC %d exceeds the %d distinct nodes the placement finds on a %dx%d mesh",
			c.NumMC, distinct, c.MeshWidth, c.MeshHeight)
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
	if err := c.MC.Validate(); err != nil {
		return err
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	// A long packet carries one L1 line, and mcNodeFor interleaves the MCs
	// by lines of addresses the workloads align to trace.LineBytes: an L2
	// line of another size, or a line shorter than a transaction, leaves
	// some MCs idle.
	if line := c.Core.L1.LineBytes; line != c.MC.L2.LineBytes || line < trace.LineBytes {
		return fmt.Errorf("core: the L1 line (%d B) must equal the L2 line (%d B) and be at least the %d B memory transaction",
			line, c.MC.L2.LineBytes, trace.LineBytes)
	}
	req, rep := c.networks()
	if _, err := req.Validate(); err != nil {
		return fmt.Errorf("core: request network: %w", err)
	}
	if _, err := rep.Validate(); err != nil {
		return fmt.Errorf("core: reply network: %w", err)
	}
	return nil
}

// networks derives, in one place, the meshes c describes: the request mesh,
// which no scheme modifies (§4.2, §6.1), and the reply mesh, whose MC nodes
// (MCPlacement) get the scheme row's injection architecture — its NI kind,
// its speedup (InjSpeedup, 0 selecting the paper's 4) and MultiPort's
// multiPortPorts. A long packet carries one L1 line. Validate checks both,
// buffer counts included, so a config it accepts constructs.
func (c Config) networks() (req, rep noc.Config) {
	m := c.Scheme.Mechanisms()
	req = noc.Config{
		Mesh:      noc.Mesh{Width: c.MeshWidth, Height: c.MeshHeight},
		VCs:       c.VCs,
		LinkBits:  c.ReqLinkBits,
		DataBytes: c.Core.L1.LineBytes,
		Routing:   m.Routing,
	}
	rep = req
	rep.LinkBits, rep.NIQueueFlits = c.RepLinkBits, c.NIQueueFlits
	if m.Priority {
		rep.PriorityLevels, rep.StarvationLimit = c.PriorityLevels, c.StarvationLimit
	}
	rep.MCNodes, rep.MC.NI = c.MCPlacement(), m.NI
	if m.Speedup {
		rep.MC.InjSpeedup = c.InjSpeedup
		if rep.MC.InjSpeedup <= 0 {
			rep.MC.InjSpeedup = 4
		}
	}
	if m.NI == noc.NIMultiPort {
		rep.MC.InjPorts = multiPortPorts
	}
	return req, rep
}

// MCPlacement returns the memory-controller node ids of c's mesh: the
// diamond placement, or an even perimeter spread on shapes the paper does
// not evaluate. Validate requires NumMC distinct ones.
func (c Config) MCPlacement() []int {
	return noc.DiamondMCPlacement(noc.Mesh{Width: c.MeshWidth, Height: c.MeshHeight}, c.NumMC)
}

// ChooseSpeedup implements the paper's speedup sizing (§4.2): the minimal
// integer S satisfying eq. (1) S >= injRate x avgFlitsPerPkt, clamped by
// eq. (2) S <= min(nOut, nVC).
func ChooseSpeedup(pktInjRatePerCycle, avgFlitsPerPkt float64, nOut, nVC int) int {
	return min(max(int(math.Ceil(pktInjRatePerCycle*avgFlitsPerPkt)), 1), nOut, nVC)
}
