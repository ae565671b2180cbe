// Package analytic is the closed-form fast path of the reproduction: a
// per-traffic-class M/G/1-style latency/throughput estimator over the 2D
// mesh + MC placement, in the modelling style of Mandal et al.'s
// "Analytical Performance Models for NoCs with Multiple Priority Traffic
// Classes" (PAPERS.md). Where the cycle-accurate simulator spends seconds
// per (config, benchmark) point, the model answers in microseconds, which
// is what lets a serving layer answer estimate-mode queries instantly and
// only schedule real simulations on demand.
//
// The model is deliberately coarse — a handful of queueing formulas over
// the same router abstractions the simulator implements — and it is *not*
// expected to match the simulator exactly. Instead its per-workload error
// against the simulator is measured once and recorded as goldens
// (testdata/error_bands.json); `make validate-analytic` then re-runs the
// comparison and fails when the error drifts outside the recorded bands.
// Because both sides are deterministic, any drift means the physics of one
// of them changed — a sanity oracle for the simulator that is independent
// of byte-identity goldens (DESIGN.md §12).
package analytic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/noc"
)

// rhoMax is where the waiting-time formulas stop: the simulator's buffers
// are finite, so real waits are bounded by backlog capacity rather than
// diverging — past this utilisation every wait saturates to its buffer
// bound, which keeps the latency curves finite and non-decreasing.
const rhoMax = 0.995

// Model holds the per-configuration derived parameters of the estimator.
// Build one with NewModel, then query open-loop latency curves directly or
// run the closed-loop Estimate for a workload.
type Model struct {
	cfg core.Config

	nodes, nCores, nMC int
	mesh               noc.Mesh

	// Packet sizes in flits per class.
	reqShort, reqLong int // ReadRequest, WriteRequest
	repLong, repShort int // ReadReply, WriteReply

	// avgHops is the mean router-to-router Manhattan distance between a
	// compute node and an MC (uniform line interleaving spreads traffic
	// evenly over MCs).
	avgHops float64

	// meshLinks is the number of directed router-to-router links.
	meshLinks int

	// Injection service at an MC's reply NI, in flits/cycle: supply is what
	// the NI architecture can hand the router (split NIs feed every VC in
	// parallel), consume is what the router's switch can drain (crossbar
	// speedup). multiPorts spreads injection queueing over that many
	// parallel injection ports (consumption-improved only).
	supplyRate  float64
	consumeRate float64
	multiPorts  float64
	priority    bool

	ejectRate float64

	// coreClockRatio is core cycles per NoC cycle (>1: cores are faster).
	coreClockRatio float64

	// Buffer bounds: waits saturate at backlog capacity, mirroring the
	// simulator's finite queues (the excess lives upstream as MC stall or
	// backpressure, which packet latency does not count).
	niQueueFlits float64 // reply-side NI injection queue, flits
	vcBufFlits   float64 // per-port router buffering, flits
	mcQueueSlots float64 // MC-side buffered transactions

	// MC service parameters (NoC cycles).
	l2Latency float64
	dramLat   float64
	// dramChanRate is the DRAM channel throughput in lines per NoC cycle.
	dramChanRate float64
}

// NewModel derives the estimator parameters from a full-system config. The
// DA2mesh overlay and the ideal reply fabric are not modelled.
func NewModel(cfg core.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("analytic: %w", err)
	}
	if cfg.Scheme.UsesOverlay() {
		return nil, fmt.Errorf("analytic: scheme %s uses the DA2mesh overlay, which the model does not cover", cfg.Scheme)
	}
	if cfg.IdealReply {
		return nil, fmt.Errorf("analytic: ideal reply fabric is not modelled")
	}
	// noc.PacketSize needs at least one byte per flit; reject instead of
	// panicking — estimate-mode requests carry arbitrary client configs.
	if cfg.ReqLinkBits < 8 || cfg.RepLinkBits < 8 {
		return nil, fmt.Errorf("analytic: link widths must be at least 8 bits (req %d, rep %d)",
			cfg.ReqLinkBits, cfg.RepLinkBits)
	}
	if cfg.DataBytes <= 0 {
		return nil, fmt.Errorf("analytic: DataBytes must be positive, got %d", cfg.DataBytes)
	}

	m := &Model{cfg: cfg}
	m.mesh = noc.Mesh{Width: cfg.MeshWidth, Height: cfg.MeshHeight}
	m.nodes = m.mesh.Nodes()
	m.nMC = cfg.NumMC
	m.nCores = m.nodes - m.nMC

	m.reqShort = 1
	m.reqLong = noc.PacketSize(noc.WriteRequest, cfg.ReqLinkBits, cfg.DataBytes)
	m.repLong = noc.PacketSize(noc.ReadReply, cfg.RepLinkBits, cfg.DataBytes)
	m.repShort = 1

	var mcNodes []int
	if cfg.EdgeMCPlacement {
		mcNodes = noc.EdgeMCPlacement(m.mesh, cfg.NumMC)
	} else {
		mcNodes = noc.DiamondMCPlacement(m.mesh, cfg.NumMC)
	}
	isMC := make(map[int]bool, len(mcNodes))
	for _, n := range mcNodes {
		isMC[n] = true
	}
	var hops, pairs float64
	for n := 0; n < m.nodes; n++ {
		if isMC[n] {
			continue
		}
		for _, mc := range mcNodes {
			hops += float64(m.mesh.Hops(n, mc))
			pairs++
		}
	}
	if pairs > 0 {
		m.avgHops = hops / pairs
	}
	m.meshLinks = 2 * (m.mesh.Height*(m.mesh.Width-1) + m.mesh.Width*(m.mesh.Height-1))

	// Injection architecture of the scheme (paper §4): the baseline NI
	// supplies one flit/cycle over a single narrow link; ARI's split NI
	// feeds every injection VC in parallel; crossbar speedup lets the
	// switch drain that many flits/cycle from the injection port; the
	// MultiPort scheme adds ports (consumption parallelism) but keeps the
	// one-flit supply.
	scheme := cfg.Scheme
	m.supplyRate = 1
	if scheme.HasSplitNI() {
		m.supplyRate = float64(cfg.VCs)
	}
	m.consumeRate = 1
	if scheme.HasSpeedup() {
		s := cfg.InjSpeedup
		if s <= 0 {
			s = 4 // the paper's sized choice (eq. 1/2)
		}
		if s > cfg.VCs {
			s = cfg.VCs
		}
		m.consumeRate = float64(s)
	}
	m.multiPorts = 1
	if scheme.IsMultiPort() {
		p := cfg.MultiPortPorts
		if p < 1 {
			p = 1
		}
		m.multiPorts = float64(p)
	}
	m.priority = scheme.HasPriority()

	m.ejectRate = float64(cfg.EjectRate)
	if m.ejectRate <= 0 {
		m.ejectRate = 1
	}

	m.coreClockRatio = float64(cfg.CoreClockNum) / float64(cfg.CoreClockDen)

	m.niQueueFlits = float64(cfg.NIQueueFlits)
	if m.niQueueFlits <= 0 {
		m.niQueueFlits = float64(4 * m.repLong) // noc.Config.Validate default
	}
	m.vcBufFlits = float64(cfg.VCs * m.repLong) // every VC buffers one long packet

	mc := cfg.MC
	m.mcQueueSlots = float64(mc.InQueueCap + mc.L2PipeCap + mc.ReplyQueueCap)
	m.l2Latency = float64(mc.L2Latency)
	if m.l2Latency <= 0 {
		m.l2Latency = 20
	}
	// DRAM access estimate: activate + CAS + burst on a row miss, CAS +
	// burst on a hit; assume an even split, scaled from the memory clock to
	// NoC cycles.
	d := mc.DRAM
	rowMiss := float64(d.TRP + d.TRCD + d.TCL + d.BurstCycles)
	rowHit := float64(d.TCL + d.BurstCycles)
	memClk := float64(cfg.MemClockNum) / float64(cfg.MemClockDen)
	if memClk <= 0 {
		memClk = 1
	}
	m.dramLat = (0.5*rowMiss + 0.5*rowHit) / memClk
	m.dramChanRate = memClk / float64(d.BurstCycles)
	return m, nil
}

// Config returns the configuration the model was built from.
func (m *Model) Config() core.Config { return m.cfg }

// mg1Wait returns the M/G/1 mean waiting time for packets of mean service
// time s and mean squared service time s2, at packet arrival rate lambda,
// saturating at bound (the wait a full buffer of backlog imposes — beyond
// that the simulator pushes the queueing upstream instead of growing it).
func mg1Wait(lambda, s, s2, bound float64) float64 {
	if lambda <= 0 || s <= 0 {
		return 0
	}
	rho := lambda * s
	if rho >= rhoMax {
		return bound
	}
	return math.Min(lambda*s2/(2*(1-rho)), bound)
}

// hopWait returns the per-hop contention delay on a mesh link at flit
// utilisation rho, for packets of mean length lenMean: a residual-service
// approximation (an arriving packet waits out half a packet in service,
// scaled by how busy the link is), saturated at the router's per-port
// buffering.
func (m *Model) hopWait(rho, lenMean float64) float64 {
	if rho >= rhoMax {
		return m.vcBufFlits
	}
	return math.Min(rho/(1-rho)*lenMean/2, m.vcBufFlits)
}

// classMix is the reply- or request-side traffic mix: per-node packet
// injection rate split into short and long packets.
type classMix struct {
	short float64 // short packets per cycle per injecting node
	long  float64 // long packets per cycle per injecting node
}

func (c classMix) packets() float64 { return c.short + c.long }

// injection models one NI→router injection stage for a traffic mix with
// the given flit sizes, returning the mean queueing + serialisation delay
// per packet. throughRho is the mesh utilisation around the injecting
// node's router: without priority, through traffic steals switch slots from
// injection (the §3 parking-lot effect); ARI's prioritisation (§5) hands
// injection the slots first.
func (m *Model) injection(mix classMix, shortLen, longLen int, throughRho float64) float64 {
	consume := m.consumeRate
	if !m.priority {
		// Through flits compete for the switch ports the injection port
		// needs; de-rate consumption by the surrounding load.
		consume *= 1 - 0.5*math.Min(throughRho, rhoMax)
	}
	mu := math.Min(m.supplyRate, consume)
	if mu < 1 {
		mu = 1
	}
	// Per-packet service time through the injection stage: head flit plus
	// the remaining flits at mu flits/cycle.
	sShort := 1 + float64(shortLen-1)/mu
	sLong := 1 + float64(longLen-1)/mu
	lambda := mix.packets()
	if lambda <= 0 {
		return sLong // degenerate: no traffic, report long serialisation
	}
	pLong := mix.long / lambda
	s := (1-pLong)*sShort + pLong*sLong
	s2 := (1-pLong)*sShort*sShort + pLong*sLong*sLong
	// MultiPort spreads waiting over its parallel injection queues
	// (consumption-improved only: serialisation is unchanged because the
	// NI still supplies one flit per cycle in total).
	wait := mg1Wait(lambda, s, s2, m.niQueueFlits/mu) / m.multiPorts
	return wait + s
}

// network models the mesh traversal of a packet of length flits over the
// average route, at average link utilisation rho: one cycle per router plus
// serialisation plus per-hop contention.
func (m *Model) network(flits int, rho, lenMean float64) float64 {
	// The simulator's routers are single-cycle (RC, VA, SA and ST in one
	// cycle); a flit also spends one cycle on each link, so a router
	// traversal costs two cycles end to end.
	routers := m.avgHops + 1
	return 2*routers + float64(flits-1) + routers*m.hopWait(rho, lenMean)
}

// ejection models the destination NI's consumption stage: flits drain at
// EjectRate, shared by every packet converging on that node.
func (m *Model) ejection(mix classMix, shortLen, longLen int) float64 {
	lambda := mix.packets()
	if lambda <= 0 {
		return 0
	}
	pLong := mix.long / lambda
	sShort := float64(shortLen) / m.ejectRate
	sLong := float64(longLen) / m.ejectRate
	s := (1-pLong)*sShort + pLong*sLong
	s2 := (1-pLong)*sShort*sShort + pLong*sLong*sLong
	return mg1Wait(lambda, s, s2, m.vcBufFlits/m.ejectRate)
}

// meshRho returns the average directed-link flit utilisation for traffic of
// totalFlitsPerCycle crossing avgHops+1 links each.
func (m *Model) meshRho(totalFlitsPerCycle float64) float64 {
	if m.meshLinks == 0 {
		return 0
	}
	return totalFlitsPerCycle * (m.avgHops + 1) / float64(m.meshLinks)
}

// hotRho returns the utilisation of the links right at an injecting node:
// its whole flit load spread over the mesh degree — the hotspot XY routing
// cannot avoid (§3's observation that MC-adjacent links saturate first).
func hotRho(flitsPerNode float64) float64 {
	const fanout = 3.5 // mean usable out-degree of an edge-ish mesh node
	return flitsPerNode / fanout
}

// replyLatency returns the mean reply-packet latency (creation at the MC to
// ejection at the core, NoC cycles) for the given per-MC injection mix.
func (m *Model) replyLatency(perMC classMix) float64 {
	flitsPerMC := perMC.short*float64(m.repShort) + perMC.long*float64(m.repLong)
	totalFlits := flitsPerMC * float64(m.nMC)
	rho := m.meshRho(totalFlits)
	lambda := perMC.packets()
	var lenMean float64
	if lambda > 0 {
		lenMean = flitsPerMC / lambda
	}

	inj := m.injection(perMC, m.repShort, m.repLong, math.Max(rho, hotRho(flitsPerMC)))
	// Per-destination ejection: replies spread over every compute node.
	perCore := classMix{
		short: perMC.short * float64(m.nMC) / float64(m.nCores),
		long:  perMC.long * float64(m.nMC) / float64(m.nCores),
	}
	ej := m.ejection(perCore, m.repShort, m.repLong)

	var wLat float64
	if lambda > 0 {
		pLong := perMC.long / lambda
		wLat = (1-pLong)*m.network(m.repShort, rho, lenMean) + pLong*m.network(m.repLong, rho, lenMean)
	} else {
		wLat = m.network(m.repLong, rho, lenMean)
	}
	return inj + wLat + ej
}

// requestLatency returns the mean request-packet latency for the given
// per-core injection mix. The hot stage here is ejection: every request
// converges on one of the few MCs (§3's backward-queueing chain).
func (m *Model) requestLatency(perCore classMix) float64 {
	flitsPerCore := perCore.short*float64(m.reqShort) + perCore.long*float64(m.reqLong)
	totalFlits := flitsPerCore * float64(m.nCores)
	rho := m.meshRho(totalFlits)
	lambda := perCore.packets()
	var lenMean float64
	if lambda > 0 {
		lenMean = flitsPerCore / lambda
	}

	// Cores inject with the baseline single-link NI regardless of scheme
	// (ARI accelerates the reply side); model it as supply=consume=1.
	sShort := float64(m.reqShort)
	sLong := float64(m.reqLong)
	var s, s2 float64
	if lambda > 0 {
		pLong := perCore.long / lambda
		s = (1-pLong)*sShort + pLong*sLong
		s2 = (1-pLong)*sShort*sShort + pLong*sLong*sLong
	}
	inj := mg1Wait(lambda, s, s2, m.niQueueFlits) + s

	perMC := classMix{
		short: perCore.short * float64(m.nCores) / float64(m.nMC),
		long:  perCore.long * float64(m.nCores) / float64(m.nMC),
	}
	ej := m.ejection(perMC, m.reqShort, m.reqLong)

	var wLat float64
	if lambda > 0 {
		pLong := perCore.long / lambda
		wLat = (1-pLong)*m.network(m.reqShort, rho, lenMean) + pLong*m.network(m.reqLong, rho, lenMean)
	} else {
		wLat = m.network(m.reqShort, rho, lenMean)
	}
	return inj + wLat + ej
}

// ReplyLatencyAt is the open-loop reply-latency curve: the mean read-reply
// latency when every MC injects lambda reply packets per cycle (all long).
// It is monotonically non-decreasing in lambda — the property the fuzz
// suite locks — and grows through the overload penalty past saturation.
func (m *Model) ReplyLatencyAt(lambda float64) float64 {
	return m.replyLatency(classMix{long: lambda})
}

// RequestLatencyAt is the open-loop request-latency curve: the mean
// read-request latency when every core injects lambda request packets per
// cycle (all short).
func (m *Model) RequestLatencyAt(lambda float64) float64 {
	return m.requestLatency(classMix{short: lambda})
}

// replyFlitCapacity returns the reply network's sustainable flit throughput
// per MC per cycle: the smallest of the injection, mesh-bisection-average
// and ejection stages.
func (m *Model) replyFlitCapacity() float64 {
	// Injection: each of the (MultiPort's) parallel injection ports hands
	// the router min(supply, consume) flits/cycle.
	injCap := m.multiPorts * math.Min(m.supplyRate, m.consumeRate)
	// Mesh: per-MC share of directed-link flit capacity over the average
	// route length.
	meshCap := float64(m.meshLinks) / ((m.avgHops + 1) * float64(m.nMC))
	// Ejection: per-MC share of the aggregate core-side drain rate.
	ejCap := float64(m.nCores) * m.ejectRate / float64(m.nMC)
	return math.Min(injCap, math.Min(meshCap, ejCap))
}

// requestFlitCapacity returns the request network's sustainable flit
// throughput per core per cycle. Cores inject with the baseline one-flit NI
// regardless of scheme; the converging stage is the MCs' ejection share.
func (m *Model) requestFlitCapacity() float64 {
	meshCap := float64(m.meshLinks) / ((m.avgHops + 1) * float64(m.nCores))
	ejCap := float64(m.nMC) * m.ejectRate / float64(m.nCores)
	return math.Min(1, math.Min(meshCap, ejCap))
}

// ReplySaturationRate returns the reply-network saturation throughput in
// long-reply packets per cycle per MC. It is monotone non-decreasing in
// reply link bandwidth (wider links mean fewer flits per packet) — the
// second property the fuzz suite locks.
func (m *Model) ReplySaturationRate() float64 {
	return m.replyFlitCapacity() / float64(m.repLong)
}

// mcServiceTime returns the mean MC turnaround (request ejected → reply
// created) for the given L2 hit rate and per-MC request rate: bank service
// behind an M/M/1-style queue, with the wait bounded by the MC's finite
// buffering (beyond that the MC backpressures the request network instead).
func (m *Model) mcServiceTime(l2Hit, lambdaPerMC float64) float64 {
	s := l2Hit*m.l2Latency + (1-l2Hit)*m.dramLat
	rho := lambdaPerMC * (1 - l2Hit) / m.dramChanRate // DRAM channel is the server
	if rho >= rhoMax {
		return s + m.mcQueueSlots*s
	}
	return s + math.Min(rho/(1-rho)*s, m.mcQueueSlots*s)
}
