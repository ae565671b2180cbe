package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/timing"
	"repro/internal/trace"
)

// Simulator is one full-system instance: a kernel running on every compute
// node, request and reply networks, and the MC nodes.
type Simulator struct {
	cfg      Config
	kernel   trace.Kernel
	workload trace.Workload

	mesh    noc.Mesh
	mcNodes []int
	ccNodes []int

	reqNet *noc.Network
	repNet noc.Fabric

	cores []*gpu.Core
	mcs   []*mem.Controller

	// reqFault/repFault drive the deterministic fault schedules when
	// Config.Fault is enabled; repFault stays nil unless the reply fabric is
	// a mesh.
	reqFault *fault.Injector
	repFault *fault.Injector

	coreClock *timing.Clock
	memClock  *timing.Clock
	cycle     int64
	measuring bool
	// measuredCycles is the realised measurement window (fixed for Run,
	// variable for RunWork).
	measuredCycles int64

	// coreCyclesMeasured counts core-clock ticks during measurement.
	coreCyclesMeasured uint64

	// sampler, when installed, runs every sampleEvery NoC cycles at the end
	// of Step (observability hook: a metrics registry's Sample). The
	// disabled-path cost is one comparison per Step.
	sampler     func(cycle int64)
	sampleEvery int64
}

// NewSimulator assembles a simulator for kernel k under cfg, generating
// the workload streams synthetically from k's parameters.
func NewSimulator(cfg Config, k trace.Kernel) (*Simulator, error) {
	return NewSimulatorWorkload(cfg, k, nil)
}

// NewSimulatorWorkload assembles a simulator that drives the cores with an
// explicit workload (e.g. a trace.Replayer over a recorded trace, or a
// trace.Recorder teeing the synthetic streams to disk). k still supplies
// the occupancy (WarpsPerCore) and labels; when w is nil the synthetic
// generator for k is used.
func NewSimulatorWorkload(cfg Config, k trace.Kernel, w trace.Workload) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		kernel:    k,
		workload:  w,
		mesh:      noc.Mesh{Width: cfg.MeshWidth, Height: cfg.MeshHeight},
		coreClock: timing.NewClock(cfg.CoreClockNum, cfg.CoreClockDen),
		memClock:  timing.NewClock(cfg.MemClockNum, cfg.MemClockDen),
	}
	if err := s.buildNetworks(); err != nil {
		return nil, err
	}
	if err := s.buildNodes(); err != nil {
		return nil, err
	}
	return s, nil
}

// RecoveryStats returns the fault-recovery protocol counters summed over
// both fabrics. Zero when recovery is disabled (Config.RetransBufPkts 0 and
// no corrupting faults) and always zero on the behavioural reply fabrics.
func (s *Simulator) RecoveryStats() noc.RecoveryStats {
	var agg noc.RecoveryStats
	add := func(r noc.RecoveryStats) {
		agg.CorruptFlits += r.CorruptFlits
		agg.CorruptPackets += r.CorruptPackets
		agg.NacksSent += r.NacksSent
		agg.AcksSent += r.AcksSent
		agg.RetransPackets += r.RetransPackets
		agg.RetransFlits += r.RetransFlits
		agg.RetransBufFullRejects += r.RetransBufFullRejects
		agg.DeadLinks += r.DeadLinks
	}
	add(s.reqNet.RecoveryStats())
	add(s.repNet.RecoveryStats())
	return agg
}

// Close is a no-op: a simulator holds no resources beyond memory. It stays
// because callers (the benchmark driver among them) pair every NewSimulator
// with a Close.
func (s *Simulator) Close() {}

// retransBufPkts sizes the recovery protocol: corruption without a
// retransmission buffer would mean silently wrong deliveries, so a
// corrupting fault schedule turns recovery on by default
// (Config.RetransBufPkts documents this).
func retransBufPkts(cfg Config) int {
	if cfg.RetransBufPkts == 0 && cfg.Fault.Enabled && cfg.Fault.CorruptProb > 0 {
		return 8
	}
	return cfg.RetransBufPkts
}

// ReplyNetwork returns the mesh reply network cfg describes — the
// per-MC-node injection architecture of cfg.Scheme (split NIs, crossbar
// speedup, default 4; MultiPort ports), its priority levels and recovery
// sizing — together with the node split it serves: the MC nodes that inject
// replies and the compute nodes that receive them. NewSimulator builds its
// reply fabric from it, and so does the standalone load-latency figure.
func ReplyNetwork(cfg Config) (rep noc.Config, mcNodes, ccNodes []int) {
	mesh := noc.Mesh{Width: cfg.MeshWidth, Height: cfg.MeshHeight}
	if cfg.EdgeMCPlacement {
		mcNodes = noc.EdgeMCPlacement(mesh, cfg.NumMC)
	} else {
		mcNodes = noc.DiamondMCPlacement(mesh, cfg.NumMC)
	}
	isMC := make([]bool, mesh.Nodes())
	for _, n := range mcNodes {
		isMC[n] = true
	}
	for n := 0; n < mesh.Nodes(); n++ {
		if !isMC[n] {
			ccNodes = append(ccNodes, n)
		}
	}

	rep = noc.Config{
		Mesh:           mesh,
		VCs:            cfg.VCs,
		LinkBits:       cfg.RepLinkBits,
		DataBytes:      cfg.DataBytes,
		Routing:        cfg.Scheme.Routing(),
		NIQueueFlits:   cfg.NIQueueFlits,
		EjectRate:      cfg.EjectRate,
		RetransBufPkts: retransBufPkts(cfg),
	}
	if cfg.Scheme.HasPriority() {
		rep.PriorityLevels = cfg.PriorityLevels
		rep.StarvationLimit = cfg.StarvationLimit
	}
	rep.Nodes = make([]noc.NodeConfig, mesh.Nodes())
	speedup := cfg.InjSpeedup
	if speedup <= 0 {
		speedup = 4
	}
	for _, n := range mcNodes {
		nc := &rep.Nodes[n]
		if cfg.Scheme.HasSplitNI() {
			nc.NI = noc.NISplit
		}
		if cfg.Scheme.HasSpeedup() {
			nc.InjSpeedup = speedup
		}
		if cfg.Scheme.IsMultiPort() {
			nc.NI = noc.NIMultiPort
			nc.InjPorts = cfg.MultiPortPorts
		}
		if cfg.UnenhancedBaseline && nc.NI == noc.NIBaseline {
			nc.NI = noc.NINarrowLink
		}
	}
	return rep, mcNodes, ccNodes
}

// buildNetworks wires the request mesh and the scheme's reply fabric, and
// the deterministic fault schedules when Config.Fault is enabled. Faults
// apply to mesh networks only: the DA2mesh overlay and the ideal fabric are
// behavioural models without per-link state, so the reply side is skipped
// for those schemes.
func (s *Simulator) buildNetworks() error {
	cfg := s.cfg
	fcfg := cfg.Fault
	if fcfg.Seed == 0 {
		fcfg.Seed = cfg.Seed
	}

	// Request network: never modified by any scheme (§4.2, §6.1).
	reqNet, err := noc.NewNetwork(noc.Config{
		Mesh:           s.mesh,
		VCs:            cfg.VCs,
		LinkBits:       cfg.ReqLinkBits,
		DataBytes:      cfg.DataBytes,
		Routing:        cfg.Scheme.Routing(),
		EjectRate:      cfg.EjectRate,
		RetransBufPkts: retransBufPkts(cfg),
	})
	if err != nil {
		return fmt.Errorf("core: request network: %w", err)
	}
	s.reqNet = reqNet
	if fcfg.Enabled {
		if s.reqFault, err = fault.NewInjector(fcfg, reqNet, 1); err != nil {
			return fmt.Errorf("core: request fault injector: %w", err)
		}
	}

	// Reply fabric: this switch is the one place that decides its type.
	repCfg, mcNodes, ccNodes := ReplyNetwork(cfg)
	s.mcNodes, s.ccNodes = mcNodes, ccNodes
	switch {
	case cfg.IdealReply:
		// The ideal fabric and the DA2mesh overlay never see corruption
		// (fault injectors attach to mesh Networks only), so the recovery
		// layer would only perturb their timing — leave it off.
		repCfg.RetransBufPkts = 0
		if s.repNet, err = noc.NewIdealFabric(repCfg); err != nil {
			return fmt.Errorf("core: ideal reply fabric: %w", err)
		}
	case cfg.Scheme.UsesOverlay():
		repCfg.RetransBufPkts = 0
		if s.repNet, err = noc.NewDA2Mesh(repCfg); err != nil {
			return fmt.Errorf("core: reply overlay: %w", err)
		}
	default:
		rep, err := noc.NewNetwork(repCfg)
		if err != nil {
			return fmt.Errorf("core: reply network: %w", err)
		}
		for _, n := range mcNodes {
			rep.MarkMCRouter(n)
		}
		if fcfg.Enabled {
			if s.repFault, err = fault.NewInjector(fcfg, rep, 2); err != nil {
				return fmt.Errorf("core: reply fault injector: %w", err)
			}
		}
		s.repNet = rep
	}
	return nil
}

// buildNodes constructs the cores and memory controllers and installs the
// traffic hooks.
func (s *Simulator) buildNodes() error {
	cfg := s.cfg

	coreCfg := cfg.Core
	coreCfg.WarpsPerCore = s.kernel.WarpsPerCore
	workload := s.workload
	if workload == nil {
		gen, err := trace.NewGenerator(s.kernel, len(s.ccNodes), cfg.Seed)
		if err != nil {
			return err
		}
		workload = gen
	}

	s.cores = make([]*gpu.Core, len(s.ccNodes))
	for i, node := range s.ccNodes {
		idx, nd := i, node
		send := func(txn *mem.Transaction) bool { return s.sendRequest(nd, txn) }
		c, err := gpu.NewCore(idx, nd, coreCfg, workload, send)
		if err != nil {
			return err
		}
		s.cores[i] = c
	}

	s.mcs = make([]*mem.Controller, len(s.mcNodes))
	for i, node := range s.mcNodes {
		mc, err := mem.NewController(node, cfg.MC, s.repNet, cfg.RepLinkBits, cfg.DataBytes)
		if err != nil {
			return err
		}
		s.mcs[i] = mc
	}

	// Request network delivers to MCs, gated by their ingress space. The MC
	// extracts the transaction, so the packet shell recycles immediately.
	// mcAt and coreAt are indexed by node id (nil where the node holds the
	// other kind): the per-eject lookups are a slice index.
	mcAt := make([]*mem.Controller, s.mesh.Nodes())
	for _, mc := range s.mcs {
		mcAt[mc.Node] = mc
	}
	s.reqNet.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) {
		mcAt[node].Receive(pkt)
		s.reqNet.PutPacket(pkt)
	})
	s.reqNet.SetSinkGate(func(node int) bool {
		mc := mcAt[node]
		return mc == nil || mc.CanReceive()
	})

	// Reply fabric delivers to cores.
	coreAt := make([]*gpu.Core, s.mesh.Nodes())
	for _, c := range s.cores {
		coreAt[c.Node] = c
	}
	s.repNet.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) {
		txn, ok := pkt.Payload.(*mem.Transaction)
		if !ok {
			panic("core: reply packet without Transaction payload")
		}
		if c := coreAt[node]; c != nil {
			c.ReceiveReply(txn)
		}
		s.repNet.PutPacket(pkt)
	})
	return nil
}

// mcNodeFor maps a line address to its owning MC node (line interleaving
// across MCs).
func (s *Simulator) mcNodeFor(addr uint64) int {
	line := addr / uint64(s.cfg.DataBytes)
	return s.mcNodes[int(line%uint64(len(s.mcNodes)))]
}

// sendRequest builds and injects a request packet from a core's node.
func (s *Simulator) sendRequest(node int, txn *mem.Transaction) bool {
	typ := noc.ReadRequest
	if txn.IsWrite {
		typ = noc.WriteRequest
	}
	pkt := s.reqNet.GetPacket()
	pkt.Type = typ
	pkt.Dst = s.mcNodeFor(txn.Addr)
	pkt.Size = noc.PacketSize(typ, s.cfg.ReqLinkBits, s.cfg.DataBytes)
	pkt.Payload = txn
	if !s.reqNet.Inject(node, pkt) {
		s.reqNet.PutPacket(pkt)
		return false
	}
	return true
}

// Step advances the whole system by one NoC cycle.
func (s *Simulator) Step() {
	coreTicks := s.coreClock.Tick()
	memTicks := s.memClock.Tick()
	for t := 0; t < coreTicks; t++ {
		for _, c := range s.cores {
			c.Tick()
		}
	}
	for _, mc := range s.mcs {
		if !mc.Quiescent() {
			mc.Tick(s.cycle, memTicks)
		} else {
			// A quiescent MC's Tick only advances the DRAM clock; skip
			// the rest of the pipeline walk but keep that clock aligned.
			mc.SkipIdle(memTicks)
		}
	}
	if s.measuring {
		s.coreCyclesMeasured += uint64(coreTicks)
	}
	if s.reqFault != nil {
		s.reqFault.Step(s.cycle)
	}
	s.reqNet.Step()
	if s.repFault != nil {
		s.repFault.Step(s.cycle)
	}
	s.repNet.Step()
	s.cycle++
	if s.sampleEvery > 0 && s.cycle%s.sampleEvery == 0 {
		s.sampler(s.cycle)
	}
}

// SetSampler installs fn to run every `every` NoC cycles at the end of Step
// (every <= 0 or a nil fn disables sampling). The hook observes only: it
// must not mutate simulator state, so an instrumented run stays
// bit-identical to an uninstrumented one.
func (s *Simulator) SetSampler(every int64, fn func(cycle int64)) {
	if fn == nil || every <= 0 {
		s.sampler, s.sampleEvery = nil, 0
		return
	}
	s.sampler, s.sampleEvery = fn, every
}

// Cycle returns the current NoC cycle.
func (s *Simulator) Cycle() int64 { return s.cycle }

// Cores exposes the compute nodes.
func (s *Simulator) Cores() []*gpu.Core { return s.cores }

// MCs exposes the memory controllers.
func (s *Simulator) MCs() []*mem.Controller { return s.mcs }

// RequestNet exposes the request network.
func (s *Simulator) RequestNet() *noc.Network { return s.reqNet }

// ReplyNet exposes the reply fabric.
func (s *Simulator) ReplyNet() noc.Fabric { return s.repNet }

// MCNodes returns the MC node ids.
func (s *Simulator) MCNodes() []int { return s.mcNodes }

// StateDumpJSON returns a JSON diagnostic of both fabrics' non-quiescent
// state (the structured form of the watchdog's text dump). It only reads, but it must run on the goroutine stepping the simulator —
// the watchdog poll services Inspector state requests for exactly that
// reason.
func (s *Simulator) StateDumpJSON() []byte {
	type dump struct {
		Cycle       int64         `json:"cycle"`
		Benchmark   string        `json:"benchmark"`
		Scheme      string        `json:"scheme"`
		Request     noc.StateDump `json:"request"`
		Reply       noc.StateDump `json:"reply"`
		RepInFlight int           `json:"reply_in_flight"`
	}
	b, err := json.Marshal(dump{
		Cycle:       s.cycle,
		Benchmark:   s.kernel.Name,
		Scheme:      s.cfg.Scheme.String(),
		Request:     s.reqNet.StateSnapshot(),
		Reply:       s.repNet.StateSnapshot(),
		RepInFlight: s.repNet.InFlight(),
	})
	if err != nil {
		// The dump types contain only marshallable fields; a failure here is
		// a programming error worth surfacing in the payload, not a panic in
		// a diagnostics path.
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return b
}

// resetStats clears all measurement counters at the warmup boundary.
func (s *Simulator) resetStats() {
	for _, c := range s.cores {
		c.ResetStats()
	}
	for _, mc := range s.mcs {
		mc.StallTime = 0
		mc.BlockedCycle = 0
		mc.RepliesSent = 0
	}
	s.reqNet.ResetStats()
	s.repNet.ResetStats()
	s.coreCyclesMeasured = 0
}

// Run executes warmup + a fixed-horizon measurement window and returns the
// collected result. It never fails: all watchdogs are disabled, so a
// deadlocked simulation spins forever — use RunChecked anywhere a hang is
// unacceptable (the experiment harness always does).
func (s *Simulator) Run() Result {
	r, _ := s.RunChecked(uncheckedOptions())
	return r
}

// RunChecked is Run with forward-progress watchdogs: it detects deadlock
// (flits in flight, zero movement for CheckOptions.DeadlockCycles) and
// livelock/starvation (a packet older than CheckOptions.PacketAgeCap) and
// fails with a structured *WatchdogError carrying a full diagnostic dump
// instead of spinning. A healthy simulation produces a Result bit-identical
// to Run's: the watchdog only reads.
func (s *Simulator) RunChecked(opt CheckOptions) (Result, error) {
	w := newWatchdog(s, opt)
	for s.cycle < s.cfg.WarmupCycles {
		s.Step()
		if err := w.poll(); err != nil {
			return Result{}, err
		}
	}
	s.resetStats()
	s.measuring = true
	end := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	for s.cycle < end {
		s.Step()
		if err := w.poll(); err != nil {
			return Result{}, err
		}
	}
	s.measuring = false
	s.measuredCycles = s.cfg.MeasureCycles
	return s.collect(), nil
}

// RunWork executes warmup, then measures until the cores have retired
// `instructions` warp-instructions in total (fixed-work mode: the basis the
// paper's execution-time and energy comparisons use), bounded by maxCycles
// as a runaway guard. The result's MeasuredCycles reflects the actual
// window, so lower is faster for the same work; Result.Truncated reports
// whether the guard clipped the run before the work completed. Watchdogs
// are disabled — see RunWorkChecked.
func (s *Simulator) RunWork(instructions uint64, maxCycles int64) Result {
	r, _ := s.RunWorkChecked(instructions, maxCycles, uncheckedOptions())
	return r
}

// RunWorkChecked is RunWork with the forward-progress watchdogs of
// RunChecked. A run clipped by maxCycles is not an error — the Result comes
// back with Truncated set so callers can decide.
func (s *Simulator) RunWorkChecked(instructions uint64, maxCycles int64, opt CheckOptions) (Result, error) {
	w := newWatchdog(s, opt)
	for s.cycle < s.cfg.WarmupCycles {
		s.Step()
		if err := w.poll(); err != nil {
			return Result{}, err
		}
	}
	s.resetStats()
	s.measuring = true
	start := s.cycle
	truncated := false
	for {
		var done uint64
		for _, c := range s.cores {
			done += c.Instructions
		}
		if done >= instructions {
			break
		}
		if s.cycle-start >= maxCycles {
			truncated = true
			break
		}
		s.Step()
		if err := w.poll(); err != nil {
			return Result{}, err
		}
	}
	s.measuring = false
	s.measuredCycles = s.cycle - start
	r := s.collect()
	r.Truncated = truncated
	return r, nil
}
