package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/slab"
	"repro/internal/timing"
	"repro/internal/trace"
)

// Simulator is one full-system instance: a kernel running on every compute
// node, request and reply networks, and the MC nodes. It is a handle on the
// system it drives: Close hands the system to the next NewSimulator, and
// every other method panics afterwards.
type Simulator struct {
	*system
}

// system is a simulator's whole object graph: both fabrics, cores with their
// L1s and MSHR files, MCs with their L2 banks and DRAM channels, and the
// synthetic workload. A closed simulator's system waits in systems, and
// NewSimulator rebuilds one from there in place — every layer's Init
// clears and re-slices what it already holds — so a build after a Close
// allocates almost nothing.
type system struct {
	cfg      Config
	kernel   trace.Kernel
	workload trace.Workload

	mesh    noc.Mesh
	mcNodes []int
	ccNodes []int

	reqNet *noc.Network
	repNet noc.Fabric
	// repMesh, overlay and ideal are the reply fabrics of each kind the
	// system has built, kept for the rebuilds that need that kind; repNet
	// is one of them. gen is the synthetic workload's storage.
	repMesh *noc.Network
	overlay *noc.DA2Mesh
	ideal   *noc.IdealFabric
	gen     *trace.Generator

	cores []*gpu.Core
	mcs   []*mem.Controller
	// mcAt and coreAt are indexed by node id, nil where the node holds the
	// other kind: the per-eject lookups of the fabrics' handlers.
	mcAt   []*mem.Controller
	coreAt []*gpu.Core

	// awake has bit i set while core i does full ticks. A tick that hands
	// off a compute burst (gpu.Core.Burst) leaves only burst ticks until the
	// burst ends, so the core sleeps until core tick sleep[i].wake, and its
	// slept ticks are applied in one batch (gpu.Core.SkipBurst) at wake and
	// wherever the simulator exposes core counters (settle). nextWake is the
	// earliest wake of a sleeping core.
	awake    []uint64
	sleep    []coreSleep
	nextWake uint64

	coreClock timing.Clock
	memClock  timing.Clock
	cycle     int64
	measuring bool
	// measuredCycles is the realised measurement window (fixed for
	// RunChecked, variable for RunWorkChecked).
	measuredCycles int64

	// coreCyclesMeasured counts core-clock ticks during measurement.
	coreCyclesMeasured uint64

	// sampler, when installed, runs every sampleEvery NoC cycles at the end
	// of Step (observability hook: a metrics registry's Sample). The
	// disabled-path cost is one comparison per Step.
	sampler     func(cycle int64)
	sampleEvery int64
}

// systems holds closed simulators' systems for NewSimulator to rebuild.
// The GC drains it.
var systems sync.Pool

// coreSleep is a sleeping core's wake tick and the core tick up to which
// its slept ticks are applied; wake is notAsleep while the core is awake.
type coreSleep struct {
	wake, settled uint64
}

const notAsleep = math.MaxUint64

// NewSimulator assembles a simulator for kernel k under cfg, generating
// the workload streams synthetically from k's parameters.
func NewSimulator(cfg Config, k trace.Kernel) (*Simulator, error) {
	return NewSimulatorWorkload(cfg, k, nil)
}

// NewSimulatorWorkload assembles a simulator that drives the cores with an
// explicit workload (e.g. a trace.Replayer over a recorded trace, or a
// trace.Recorder teeing the synthetic streams to disk). k still supplies
// the occupancy (WarpsPerCore) and labels; when w is nil the synthetic
// generator for k is used. It rebuilds a closed simulator's system when
// one is waiting.
func NewSimulatorWorkload(cfg Config, k trace.Kernel, w trace.Workload) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	s, _ := systems.Get().(*system)
	if s == nil {
		s = new(system)
	}
	if err := s.init(cfg, k, w); err != nil {
		return nil, err
	}
	return &Simulator{s}, nil
}

// init builds s for kernel k under cfg in place, keeping every object and
// slice it already holds for the layers' Inits to reuse.
func (s *system) init(cfg Config, k trace.Kernel, w trace.Workload) error {
	*s = system{
		cfg:       cfg,
		kernel:    k,
		workload:  w,
		mesh:      noc.Mesh{Width: cfg.MeshWidth, Height: cfg.MeshHeight},
		reqNet:    s.reqNet,
		repMesh:   s.repMesh,
		overlay:   s.overlay,
		ideal:     s.ideal,
		gen:       s.gen,
		cores:     s.cores,
		mcs:       s.mcs,
		mcAt:      s.mcAt,
		coreAt:    s.coreAt,
		awake:     s.awake,
		sleep:     s.sleep,
		coreClock: *timing.NewClock(cfg.CoreClockNum, cfg.CoreClockDen),
		memClock:  *timing.NewClock(cfg.MemClockNum, cfg.MemClockDen),
	}
	if err := s.buildNetworks(); err != nil {
		return err
	}
	return s.buildNodes()
}

// open returns s's system, panicking once Close has handed it on.
func (s *Simulator) open() *system {
	if s.system == nil {
		panic("core: Simulator used after Close")
	}
	return s.system
}

// Close is the simulator's last use: it hands the simulator's system —
// fabrics, cores, caches, MCs and workload generator — to the next
// NewSimulator to rebuild in place, so every method but Close panics
// afterwards, and nothing read from the simulator (its cores, MCs and
// fabrics above all) may be used once it returns. A second Close does
// nothing. A caller that hands the simulator or a fabric on (exp.Runner's
// observed jobs, whose observers may keep a fabric) does not close it, and
// the GC takes its storage instead.
func (s *Simulator) Close() {
	if s.system != nil {
		systems.Put(s.system)
		s.system = nil
	}
}

// ReplyNetwork returns the mesh reply network cfg describes — its MCNodes
// inject replies with the injection architecture of cfg.Scheme's row
// (Config.networks) — together with the compute nodes that receive them.
// The estimator and the NoC conformance tests build on it, as NewSimulator
// does.
func ReplyNetwork(cfg Config) (rep noc.Config, ccNodes []int) {
	_, rep = cfg.networks()
	return rep, computeNodes(rep)
}

// computeNodes returns, in ascending order, the nodes of rep's mesh that are
// not MC nodes.
func computeNodes(rep noc.Config) []int {
	mcs := slices.Clone(rep.MCNodes)
	slices.Sort(mcs)
	cc := make([]int, 0, rep.Mesh.Nodes()-len(mcs))
	for n := range rep.Mesh.Nodes() {
		if len(mcs) > 0 && mcs[0] == n {
			mcs = mcs[1:]
		} else {
			cc = append(cc, n)
		}
	}
	return cc
}

// buildNetworks wires the request mesh and the scheme's reply fabric.
func (s *system) buildNetworks() error {
	cfg := s.cfg
	reqCfg, repCfg := cfg.networks()
	if s.reqNet == nil {
		s.reqNet = new(noc.Network)
	}
	if err := s.reqNet.Init(reqCfg); err != nil {
		return fmt.Errorf("core: request network: %w", err)
	}

	// Reply fabric: this switch is the one place that decides its type.
	s.mcNodes, s.ccNodes = repCfg.MCNodes, computeNodes(repCfg)
	switch {
	case cfg.IdealReply:
		if s.ideal == nil {
			s.ideal = new(noc.IdealFabric)
		}
		if err := s.ideal.Init(repCfg); err != nil {
			return fmt.Errorf("core: ideal reply fabric: %w", err)
		}
		s.repNet = s.ideal
	case cfg.Scheme.Mechanisms().Overlay:
		if s.overlay == nil {
			s.overlay = new(noc.DA2Mesh)
		}
		if err := s.overlay.Init(repCfg); err != nil {
			return fmt.Errorf("core: reply overlay: %w", err)
		}
		s.repNet = s.overlay
	default:
		if s.repMesh == nil {
			s.repMesh = new(noc.Network)
		}
		if err := s.repMesh.Init(repCfg); err != nil {
			return fmt.Errorf("core: reply network: %w", err)
		}
		s.repNet = s.repMesh
	}
	return nil
}

// reuse returns ptrs resized to n, keeping every object its backing array
// already points at; the slots past those are nil.
func reuse[T any](ptrs []*T, n int) []*T {
	if cap(ptrs) < n {
		ptrs = append(ptrs[:cap(ptrs)], make([]*T, n-cap(ptrs))...)
	}
	return ptrs[:n]
}

// buildNodes constructs the cores and memory controllers and installs the
// traffic hooks.
func (s *system) buildNodes() error {
	cfg := s.cfg

	workload := s.workload
	if workload == nil {
		if s.gen == nil {
			s.gen = new(trace.Generator)
		}
		if err := s.gen.Init(s.kernel, len(s.ccNodes), cfg.Seed); err != nil {
			return err
		}
		workload = s.gen
	}

	s.cores = reuse(s.cores, len(s.ccNodes))
	for i, node := range s.ccNodes {
		send := func(txn *mem.Transaction) bool { return s.sendRequest(node, txn) }
		if s.cores[i] == nil {
			s.cores[i] = new(gpu.Core)
		}
		if err := s.cores[i].Init(i, node, cfg.Core, s.kernel.WarpsPerCore, workload, send); err != nil {
			return err
		}
	}
	slab.Fit(&s.awake, (len(s.cores)+63)/64)
	slab.Fit(&s.sleep, len(s.cores))
	for i := range s.cores {
		s.awake[i>>6] |= 1 << (i & 63)
		s.sleep[i].wake = notAsleep
	}
	s.nextWake = notAsleep

	s.mcs = reuse(s.mcs, len(s.mcNodes))
	for i, node := range s.mcNodes {
		if s.mcs[i] == nil {
			s.mcs[i] = new(mem.Controller)
		}
		if err := s.mcs[i].Init(node, cfg.MC, s.repNet, cfg.RepLinkBits, cfg.Core.L1.LineBytes); err != nil {
			return err
		}
	}

	// Request network delivers to MCs, gated by their ingress space. The MC
	// extracts the transaction, so the packet shell recycles immediately.
	slab.Fit(&s.mcAt, s.mesh.Nodes())
	for _, mc := range s.mcs {
		s.mcAt[mc.Node] = mc
	}
	s.reqNet.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) {
		s.mcAt[node].Receive(pkt)
		s.reqNet.PutPacket(pkt)
	})
	s.reqNet.SetSinkGate(func(node int) bool {
		mc := s.mcAt[node]
		return mc == nil || mc.CanReceive()
	})

	// Reply fabric delivers to cores.
	slab.Fit(&s.coreAt, s.mesh.Nodes())
	for _, c := range s.cores {
		s.coreAt[c.Node] = c
	}
	s.repNet.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) {
		txn, ok := pkt.Payload.(*mem.Transaction)
		if !ok {
			panic("core: reply packet without Transaction payload")
		}
		if c := s.coreAt[node]; c != nil {
			c.ReceiveReply(txn)
		}
		s.repNet.PutPacket(pkt)
	})
	return nil
}

// mcNodeFor maps a line address to its owning MC node (line interleaving
// across MCs).
func (s *system) mcNodeFor(addr uint64) int {
	line := addr / uint64(s.cfg.Core.L1.LineBytes)
	return s.mcNodes[int(line%uint64(len(s.mcNodes)))]
}

// sendRequest builds and injects a request packet from a core's node.
func (s *system) sendRequest(node int, txn *mem.Transaction) bool {
	typ := noc.ReadRequest
	if txn.IsWrite {
		typ = noc.WriteRequest
	}
	pkt := s.reqNet.GetPacket()
	pkt.Type = typ
	pkt.Dst = s.mcNodeFor(txn.Addr)
	pkt.Size = noc.PacketSize(typ, s.cfg.ReqLinkBits, s.cfg.Core.L1.LineBytes)
	pkt.Payload = txn
	if !s.reqNet.Inject(node, pkt) {
		s.reqNet.PutPacket(pkt)
		return false
	}
	return true
}

// Step advances the whole system by one NoC cycle.
func (s *Simulator) Step() { s.open().step() }

// step is Step on a system known to be open.
func (s *system) step() {
	coreTicks := s.coreClock.Tick()
	memTicks := s.memClock.Tick()
	for tick := s.coreClock.Cycles() - uint64(coreTicks); tick < s.coreClock.Cycles(); tick++ {
		s.tickCores(tick)
	}
	for _, mc := range s.mcs {
		mc.Tick(s.cycle, memTicks)
	}
	if s.measuring {
		s.coreCyclesMeasured += uint64(coreTicks)
	}
	s.reqNet.Step()
	s.repNet.Step()
	s.cycle++
	if s.sampleEvery > 0 && s.cycle%s.sampleEvery == 0 {
		s.settle()
		s.sampler(s.cycle)
	}
}

// tickCores runs core tick `tick` (counted from 0): it wakes the cores whose
// burst ends there, then ticks every awake core in index order. That is the
// order ticking every core gives, as a burst tick touches nothing outside
// its core. A core whose tick hands off a burst of k ticks sleeps through
// them and wakes at tick+1+k.
func (s *system) tickCores(tick uint64) {
	if tick == s.nextWake {
		s.nextWake = notAsleep
		for i := range s.sleep {
			sl := &s.sleep[i]
			if sl.wake == tick {
				s.cores[i].SkipBurst(int(tick - sl.settled))
				sl.wake = notAsleep
				s.awake[i>>6] |= 1 << (i & 63)
			}
			s.nextWake = min(s.nextWake, sl.wake)
		}
	}
	for w, m := range s.awake {
		for ; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			c := s.cores[i]
			c.Tick()
			if k := c.Burst(); k > 0 {
				s.awake[w] &^= m & -m
				s.sleep[i] = coreSleep{wake: tick + 1 + uint64(k), settled: tick + 1}
				s.nextWake = min(s.nextWake, s.sleep[i].wake)
			}
		}
	}
}

// settle applies the ticks every sleeping core has slept so far, so its
// counters read what ticking it every core cycle would leave.
func (s *system) settle() {
	now := s.coreClock.Cycles()
	for i := range s.sleep {
		if sl := &s.sleep[i]; sl.wake != notAsleep {
			s.cores[i].SkipBurst(int(now - sl.settled))
			sl.settled = now
		}
	}
}

// SetSampler installs fn to run every `every` NoC cycles at the end of Step
// (every <= 0 or a nil fn disables sampling). The hook observes only: it
// must not mutate simulator state, so an instrumented run stays
// bit-identical to an uninstrumented one.
func (s *Simulator) SetSampler(every int64, fn func(cycle int64)) {
	s.open()
	if fn == nil || every <= 0 {
		s.sampler, s.sampleEvery = nil, 0
		return
	}
	s.sampler, s.sampleEvery = fn, every
}

// Cycle returns the current NoC cycle.
func (s *Simulator) Cycle() int64 { return s.open().cycle }

// Cores exposes the compute nodes, their counters settled to the current
// cycle.
func (s *Simulator) Cores() []*gpu.Core {
	s.open().settle()
	return s.cores
}

// MCs exposes the memory controllers.
func (s *Simulator) MCs() []*mem.Controller { return s.open().mcs }

// RequestNet exposes the request network.
func (s *Simulator) RequestNet() *noc.Network { return s.open().reqNet }

// ReplyNet exposes the reply fabric.
func (s *Simulator) ReplyNet() noc.Fabric { return s.open().repNet }

// MCNodes returns the MC node ids.
func (s *Simulator) MCNodes() []int { return s.open().mcNodes }

// StateDumpJSON returns a JSON diagnostic of both fabrics' non-quiescent
// state: what /debug/nocstate serves and, indented, a WatchdogError's Dump.
// It only reads, but it must run on the goroutine stepping the simulator —
// the watchdog poll services Inspector state requests for exactly that
// reason.
func (s *Simulator) StateDumpJSON() []byte {
	s.open()
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
func (s *system) resetStats() {
	s.settle()
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

// RunChecked executes warmup + a fixed-horizon measurement window under
// the forward-progress watchdogs and returns the collected result. It
// detects deadlock (flits in flight, zero movement for
// CheckOptions.DeadlockCycles) and livelock/starvation (a packet older than
// CheckOptions.PacketAgeCap) and fails with a structured *WatchdogError
// carrying a full diagnostic dump instead of spinning. The watchdog only
// reads: a healthy run's Result is the one plain Step calls would give.
func (s *Simulator) RunChecked(opt CheckOptions) (Result, error) {
	s.open()
	return s.run(opt, s.cfg.MeasureCycles, nil)
}

// RunWorkChecked executes warmup, then measures until the cores have
// retired `instructions` warp-instructions in total (fixed-work mode: the
// basis the paper's execution-time and energy comparisons use), bounded by
// maxCycles as a runaway guard, under RunChecked's watchdogs. The result's
// MeasuredCycles reflects the actual window, so lower is faster for the
// same work. A run clipped by maxCycles is not an error — the Result comes
// back with Truncated set so callers can decide.
func (s *Simulator) RunWorkChecked(instructions uint64, maxCycles int64, opt CheckOptions) (Result, error) {
	s.open()
	return s.run(opt, maxCycles, func() bool { return s.retired() >= instructions })
}

// retired sums the warp-instructions the cores retired since the last reset.
func (s *system) retired() uint64 {
	s.settle()
	var done uint64
	for _, c := range s.cores {
		done += c.Instructions
	}
	return done
}

// run is the one run loop: warmup, the stats reset, then measurement until
// workDone reports true (fixed work) or maxCycles pass, polling the watchdog
// after every Step. A nil workDone is a fixed horizon; with one, hitting
// maxCycles first sets Result.Truncated.
func (s *Simulator) run(opt CheckOptions, maxCycles int64, workDone func() bool) (Result, error) {
	w := newWatchdog(s, opt)
	for s.cycle < s.cfg.WarmupCycles {
		s.step()
		if err := w.poll(); err != nil {
			return Result{}, err
		}
	}
	s.resetStats()
	s.measuring = true
	start := s.cycle
	truncated := false
	for workDone == nil || !workDone() {
		if s.cycle-start >= maxCycles {
			truncated = workDone != nil
			break
		}
		s.step()
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
