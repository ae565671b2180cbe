package noc

import (
	"fmt"

	"repro/internal/rng"
)

// Fault injection: a mesh Network given a FaultConfig (ScheduleFaults) draws
// its own deterministic, seeded fault schedule at the top of every Step. Five
// hardware fault classes, one row each in faultKinds:
//
//   - link stalls: a router output link (mesh or ejection) grants nothing
//     for a bounded window;
//   - input-port freezes: a router input port's VCs stop bidding for the
//     switch, so buffered flits sit still and upstream credits stop
//     returning;
//   - NI backpressure bursts: a node's NI supplies no flits, so its queues
//     back up and Offer rejections reach the node logic (MC data stalls,
//     core send stalls);
//   - flit corruption bursts: every flit crossing one output link inside a
//     bounded window has its payload damaged, which marks its packet bad in
//     the packet table (pktTable.bad). Only the receiving NI's CRC check
//     sees it: it drops and NACKs the packet, and the source retransmits
//     (recovery.go). So corruption requires the recovery layer
//     (Config.RetransBufPkts > 0);
//   - permanent link death: one mesh link stops forwarding forever
//     (killLink), and fault-adaptive routing detours around it (ftable.go).
//
// The first three are pure service stalls: buffers, credits and ownership
// are never touched, so credit-based wormhole flow control absorbs them with
// zero flit loss and CheckInvariants stays clean at every fault boundary.
// The last two are recovered by protocol. Overlapping faults on one
// component extend to the furthest horizon. All randomness flows through
// internal/rng, so a (FaultConfig, stream) pair replays the identical
// schedule.

// FaultConfig parameterises one network's fault schedule. A config whose
// probabilities are all zero, the zero value among them, injects nothing.
type FaultConfig struct {
	// Seed seeds the fault schedule. Each network splits its own stream off
	// it (ScheduleFaults' stream tag), so request- and reply-side schedules
	// are decorrelated but both fully determined by (FaultConfig, Seed).
	Seed uint64

	// LinkStallProb, PortFreezeProb, NIStallProb, CorruptProb and
	// LinkDeathProb are per-cycle probabilities of starting one fault of
	// that kind somewhere in the network (one Bernoulli draw per kind per
	// cycle, not per component).
	LinkStallProb  float64
	PortFreezeProb float64
	NIStallProb    float64
	// CorruptProb > 0 requires the network's fault-recovery layer
	// (Config.RetransBufPkts > 0): corruption without checksum detection
	// and retransmission would be silent data loss, and ScheduleFaults
	// rejects that combination.
	CorruptProb   float64
	LinkDeathProb float64

	// MaxDeadLinks caps permanent link kills over the whole run (0 = 2).
	// Once reached, link-death draws stop before consuming site draws, so
	// the rest of the schedule is unchanged.
	MaxDeadLinks int

	// MinDuration and MaxDuration bound each fault's length in cycles
	// (inclusive). Zero values default to [8, 64].
	MinDuration int
	MaxDuration int

	// MaxConcurrent caps simultaneously active faults (0 = 8). The cap keeps
	// a high-probability configuration from freezing the whole mesh at once,
	// which would read as a watchdog deadlock rather than a transient fault.
	MaxConcurrent int
}

// injects reports whether c starts any fault: some kind's probability is
// positive.
func (c *FaultConfig) injects() bool {
	for k := range faultKinds {
		if faultKinds[k].prob(c) > 0 {
			return true
		}
	}
	return false
}

// Validate checks bounds and fills defaults, returning the normalised config.
func (c FaultConfig) Validate() (FaultConfig, error) {
	for k := range faultKinds {
		if p := faultKinds[k].prob(&c); !(p >= 0 && p <= 1) { // NaN too
			return c, fmt.Errorf("fault: probability %v outside [0,1]", p)
		}
	}
	if c.MinDuration < 0 || c.MaxDuration < 0 {
		return c, fmt.Errorf("fault: negative duration bounds [%d,%d]", c.MinDuration, c.MaxDuration)
	}
	if c.MaxDeadLinks < 0 {
		return c, fmt.Errorf("fault: negative MaxDeadLinks %d", c.MaxDeadLinks)
	}
	if c.MinDuration == 0 {
		c.MinDuration = 8
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = 64
	}
	if c.MaxDuration < c.MinDuration {
		return c, fmt.Errorf("fault: MaxDuration %d < MinDuration %d", c.MaxDuration, c.MinDuration)
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxDeadLinks == 0 {
		c.MaxDeadLinks = 2
	}
	return c, nil
}

// SoakFaults returns the stress configuration the fault soaks use:
// frequent, short, overlapping faults of the three stall kinds.
func SoakFaults(seed uint64) FaultConfig {
	return FaultConfig{
		Seed:           seed,
		LinkStallProb:  0.05,
		PortFreezeProb: 0.03,
		NIStallProb:    0.03,
		MinDuration:    4,
		MaxDuration:    48,
		MaxConcurrent:  6,
	}
}

// ChaosFaults returns the chaos-soak configuration: every SoakFaults stall
// kind layered with frequent flit-corruption bursts and rare permanent link
// deaths. It requires the recovery layer (Config.RetransBufPkts > 0).
func ChaosFaults(seed uint64) FaultConfig {
	c := SoakFaults(seed)
	c.CorruptProb = 0.02
	c.LinkDeathProb = 0.002
	c.MaxDeadLinks = 3
	return c
}

// faultKind indexes faultKinds. New kinds append after the original three,
// so a config that leaves their probabilities at zero consumes the same
// draw stream (rng.Bool(0) draws nothing).
type faultKind uint8

const (
	linkStall faultKind = iota
	portFreeze
	niStall
	flitCorrupt
	linkDeath
	numFaultKinds
)

// faultKinds holds one row per kind, in draw order: its probability field,
// the range its port is drawn from (0: no port is drawn) and the horizon a
// transient fault extends. linkDeath has no horizon: it is permanent,
// capped by MaxDeadLinks instead of MaxConcurrent, and has no duration.
var faultKinds = [numFaultKinds]struct {
	prob    func(*FaultConfig) float64
	ports   int
	horizon func(n *Network, node, port int) *int64
}{
	linkStall: {func(c *FaultConfig) float64 { return c.LinkStallProb }, numOutPorts,
		func(n *Network, node, port int) *int64 { return &n.routers[node].out[port].stalledUntil }},
	portFreeze: {func(c *FaultConfig) float64 { return c.PortFreezeProb }, NumDirections,
		func(n *Network, node, port int) *int64 { return &n.routers[node].in[port].frozenUntil }},
	niStall: {func(c *FaultConfig) float64 { return c.NIStallProb }, 0,
		func(n *Network, node, _ int) *int64 { return &n.nis[node].stalledUntil }},
	flitCorrupt: {func(c *FaultConfig) float64 { return c.CorruptProb }, numOutPorts,
		func(n *Network, node, port int) *int64 { return &n.routers[node].out[port].corruptUntil }},
	linkDeath: {func(c *FaultConfig) float64 { return c.LinkDeathProb }, NumDirections, nil},
}

// faultSchedule is one network's fault stream and its bookkeeping.
type faultSchedule struct {
	cfg     FaultConfig
	src     *rng.Source
	total   uint64  // every injected fault
	expires []int64 // active transient faults' expiry cycles
}

// ScheduleFaults installs a fault schedule drawn from cfg on stream tag
// stream, which decorrelates networks sharing one seed (the simulator uses
// 1 for the request mesh and 2 for the reply mesh). From the next Step on,
// every cycle draws its faults before the network moves. A cfg whose
// probabilities are all zero installs nothing; corruption on a network
// without the recovery layer is an error.
func (n *Network) ScheduleFaults(cfg FaultConfig, stream uint64) error {
	cfg, err := cfg.Validate()
	if err != nil || !cfg.injects() {
		return err
	}
	if cfg.CorruptProb > 0 && !n.recoveryOn() {
		return fmt.Errorf("fault: CorruptProb %v needs the recovery layer; set noc.Config.RetransBufPkts > 0",
			cfg.CorruptProb)
	}
	n.faults = &faultSchedule{cfg: cfg, src: rng.New(cfg.Seed).Split(stream)}
	return nil
}

// FaultEvents returns the number of faults the schedule injected (0 without
// a schedule).
func (n *Network) FaultEvents() int {
	if n.faults == nil {
		return 0
	}
	return int(n.faults.total)
}

// step draws and applies cycle now's faults: one Bernoulli draw per kind in
// kind order, then for each fault that starts its node, its duration and
// its port. A draw the caps swallow is still consumed, so the schedule
// stays aligned whatever the caps and the network refuse.
func (s *faultSchedule) step(n *Network) {
	now := n.now
	kept := s.expires[:0]
	for _, e := range s.expires {
		if e > now {
			kept = append(kept, e)
		}
	}
	s.expires = kept

	nodes := len(n.routers)
	for k := range faultKinds {
		row := &faultKinds[k]
		if !s.src.Bool(row.prob(&s.cfg)) {
			continue
		}
		if row.horizon == nil {
			// A permanent fault is capped before its site draws, so a capped
			// schedule consumes no extra stream. A refused kill records
			// nothing but has consumed its draws.
			if n.DeadLinks() < s.cfg.MaxDeadLinks {
				node, port := s.src.Intn(nodes), s.src.Intn(row.ports)
				if n.killLink(node, port) {
					s.total++
				}
			}
			continue
		}
		if len(s.expires) >= s.cfg.MaxConcurrent {
			continue
		}
		node := s.src.Intn(nodes)
		dur := s.cfg.MinDuration + s.src.Intn(s.cfg.MaxDuration-s.cfg.MinDuration+1)
		port := -1
		if row.ports > 0 {
			port = s.src.Intn(row.ports)
		}
		until := now + int64(dur)
		n.fault(faultKind(k), node, port, until)
		s.total++
		s.expires = append(s.expires, until)
	}
}

// fault opens a transient fault of kind k on (node, port) until cycle until.
// Mesh ports are 0..NumDirections-1; output port NumDirections is the local
// ejection link, and input ports above the mesh ones are injection ports.
func (n *Network) fault(k faultKind, node, port int, until int64) {
	n.faulted = true
	if h := faultKinds[k].horizon(n, node, port); until > *h {
		*h = until
	}
}

// StallLink stalls output port `port` of node's router until cycle `until`:
// switch allocation never grants the output while stalled, so no flit
// traverses the link. Ports 0..NumDirections-1 are the mesh links; port
// NumDirections is the local ejection link.
func (n *Network) StallLink(node, port int, until int64) { n.fault(linkStall, node, port, until) }

// killLink permanently removes the mesh link on output port `port` of
// node's router. The whole network then switches to the fault-adaptive
// up*/down* routing table (ftable.go): waiting packets everywhere re-route
// through it (every router's reroute flag is raised), and new routes detour
// around the dead link deadlock-free. Worms already granted the link drain
// gracefully — switch allocation still serves active owners — so no flit
// is lost at the instant of death. The kill is refused (returns false)
// when there is no link, the link is already dead, or removing it would
// disconnect the graph of bidirectionally-alive links the routing table is
// built on; refusing keeps every fault schedule drainable.
func (n *Network) killLink(node, port int) bool {
	op := &n.routers[node].out[port]
	if op.dest < 0 || op.dead {
		return false
	}
	op.dead = true // tentatively, for the connectivity probe
	if !n.aliveBiConnected() {
		op.dead = false
		return false
	}
	n.recovery.DeadLinks++
	n.rebuildFaultTable()
	for i := range n.routers {
		n.routers[i].reroute = true
	}
	return true
}

// DeadLinks returns the number of permanently killed mesh links.
func (n *Network) DeadLinks() int { return n.recovery.DeadLinks }
