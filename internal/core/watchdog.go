package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/noc"
)

// ErrInterrupted is returned by the checked run loops when the
// CheckOptions.Interrupt hook asks them to stop (cancellation, timeout).
var ErrInterrupted = errors.New("core: run interrupted")

// pollEvery is the watchdog sampling period in cycles. The checks are O(1)
// except the age scan, which is O(buffers) and runs at this cadence too.
const pollEvery = 64

// CheckOptions configures the forward-progress watchdogs of RunChecked and
// RunWorkChecked. The zero value enables the default thresholds; set a
// field negative to disable that check.
type CheckOptions struct {
	// DeadlockCycles fails the run when flits are in flight anywhere but no
	// fabric moves a single flit for this many consecutive cycles. 0 selects
	// the default (10000 cycles — far beyond any legitimate stall, including
	// the longest §5 starvation window); negative
	// disables deadlock detection.
	DeadlockCycles int64
	// PacketAgeCap fails the run when any in-flight packet is older than
	// this many cycles (livelock/starvation: the network still moves flits
	// but some packet never gets through). 0 selects the default (50000
	// cycles); negative disables the age check.
	PacketAgeCap int64
	// InvariantEvery, when positive, additionally runs CheckInvariants on
	// both fabrics every InvariantEvery cycles and converts a
	// violation into an error naming the run. It is the one invariant gate:
	// no Config carries one.
	InvariantEvery int64
	// Interrupt, when non-nil, is polled every pollEvery cycles; returning
	// true aborts the run with ErrInterrupted. The experiment harness wires
	// context cancellation and per-run timeouts through it.
	Interrupt func() bool
	// Inspector, when non-nil, receives a progress report every pollEvery
	// cycles and may request a state snapshot, which the run produces at the
	// same poll — the only race-free point to observe simulator state from
	// outside its goroutine. Live introspection (obs.RunStatus) hooks in
	// here; the inspector must only record, never mutate.
	Inspector Inspector
}

// Inspector observes a checked run from outside its goroutine. All methods
// are called on the simulation goroutine at watchdog-poll cadence;
// implementations must be fast and non-blocking.
type Inspector interface {
	// Progress reports the run's position: the current NoC cycle, in-flight
	// packets per fabric, and how long the watchdog has seen no fabric move
	// a flit (0 is healthy; approaching DeadlockCycles is a stall).
	Progress(cycle int64, reqInFlight, repInFlight int, noProgressFor int64)
	// WantState reports whether a state snapshot is wanted; when it returns
	// true the run calls State with Simulator.StateDumpJSON's payload.
	WantState() bool
	// State delivers the requested snapshot.
	State(dump []byte)
}

// withDefaults resolves the zero-value conventions.
func (o CheckOptions) withDefaults() CheckOptions {
	if o.DeadlockCycles == 0 {
		o.DeadlockCycles = 10000
	}
	if o.PacketAgeCap == 0 {
		o.PacketAgeCap = 50000
	}
	return o
}

// WatchdogError is the structured diagnostic a tripped watchdog returns:
// what tripped, where the simulation stood, and a full dump of the stuck
// state (per-router VC states, ownership, credit map, oldest packets).
type WatchdogError struct {
	// Kind is "deadlock" (flits in flight, nothing moving) or "starvation"
	// (flits moving, but some packet exceeded the age cap).
	Kind      string
	Benchmark string
	Scheme    Scheme
	// Cycle is the NoC cycle at detection.
	Cycle int64
	// NoProgressFor is how long no fabric had moved a flit (deadlock).
	NoProgressFor int64
	// OldestPacketAge is the age of the oldest in-flight packet in cycles.
	OldestPacketAge int64
	ReqInFlight     int
	RepInFlight     int
	// Dump is both fabrics' stuck state as indented JSON: the document
	// Simulator.StateDumpJSON returns and /debug/nocstate serves.
	Dump string
}

// Error summarises the failure; the full dump is appended so a bare %v in a
// log captures the whole diagnosis.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("core: %s watchdog: %s/%s at cycle %d (no progress for %d cycles, oldest packet %d cycles, in-flight req=%d rep=%d)\n%s",
		e.Kind, e.Benchmark, e.Scheme, e.Cycle, e.NoProgressFor, e.OldestPacketAge,
		e.ReqInFlight, e.RepInFlight, e.Dump)
}

// fabricMark fingerprints one fabric's externally visible activity; any
// change between samples proves at least one flit moved (injection, switch
// or link traversal, ejection, or delivery).
type fabricMark struct {
	inFlight                                  int
	injPkts, injLink, mesh, sw, eject, cycles uint64
}

func markOf(f noc.Fabric) fabricMark {
	st := f.Stats()
	var inj uint64
	for _, c := range st.PacketsInjected {
		inj += c
	}
	return fabricMark{
		inFlight: f.InFlight(),
		injPkts:  inj,
		injLink:  st.InjLinkFlits,
		mesh:     st.MeshLinkFlits,
		sw:       st.SwitchTraversals,
		eject:    st.EjectFlits,
	}
}

// watchdog tracks forward progress across both fabrics during a checked run.
type watchdog struct {
	s            *Simulator
	opt          CheckOptions
	reqMark      fabricMark
	repMark      fabricMark
	lastProgress int64
	lastInvCheck int64
}

func newWatchdog(s *Simulator, opt CheckOptions) *watchdog {
	return &watchdog{
		s:            s,
		opt:          opt.withDefaults(),
		reqMark:      markOf(s.reqNet),
		repMark:      markOf(s.repNet),
		lastProgress: s.cycle,
		lastInvCheck: s.cycle,
	}
}

// poll runs the due checks; call it after every Step with the new cycle.
func (w *watchdog) poll() error {
	now := w.s.cycle
	if now%pollEvery != 0 {
		return nil
	}
	if w.opt.Interrupt != nil && w.opt.Interrupt() {
		return ErrInterrupted
	}
	if w.opt.InvariantEvery > 0 && now-w.lastInvCheck >= w.opt.InvariantEvery {
		w.lastInvCheck = now
		err := w.s.reqNet.CheckInvariants()
		if err == nil {
			err = w.s.repNet.CheckInvariants()
		}
		if err != nil {
			return fmt.Errorf("core: invariant violated at cycle %d (%s/%s): %w",
				now, w.s.kernel.Name, w.s.cfg.Scheme, err)
		}
	}

	req, rep := markOf(w.s.reqNet), markOf(w.s.repNet)
	if req != w.reqMark || rep != w.repMark {
		w.reqMark, w.repMark = req, rep
		w.lastProgress = now
	} else if req.inFlight == 0 && rep.inFlight == 0 {
		// Nothing in flight: cores/MCs may legitimately compute without NoC
		// traffic, so the deadlock timer only runs while flits exist.
		w.lastProgress = now
	}

	if ins := w.opt.Inspector; ins != nil {
		ins.Progress(now, req.inFlight, rep.inFlight, now-w.lastProgress)
		if ins.WantState() {
			ins.State(w.s.StateDumpJSON())
		}
	}

	if w.opt.DeadlockCycles > 0 && now-w.lastProgress >= w.opt.DeadlockCycles {
		return w.s.diagnose("deadlock", now-w.lastProgress)
	}
	if w.opt.PacketAgeCap > 0 {
		if age := w.s.oldestPacketAge(); age > w.opt.PacketAgeCap {
			return w.s.diagnose("starvation", now-w.lastProgress)
		}
	}
	return nil
}

// oldestPacketAge returns the maximum in-flight packet age over both
// fabrics.
func (s *Simulator) oldestPacketAge() int64 {
	return max(s.reqNet.OldestPacketAge(), s.repNet.OldestPacketAge())
}

// diagnose builds the structured watchdog failure for the current state.
func (s *Simulator) diagnose(kind string, noProgress int64) *WatchdogError {
	var dump bytes.Buffer
	// StateDumpJSON's document, its error fallback included, is valid JSON.
	_ = json.Indent(&dump, s.StateDumpJSON(), "", "  ")
	return &WatchdogError{
		Kind:            kind,
		Benchmark:       s.kernel.Name,
		Scheme:          s.cfg.Scheme,
		Cycle:           s.cycle,
		NoProgressFor:   noProgress,
		OldestPacketAge: s.oldestPacketAge(),
		ReqInFlight:     s.reqNet.InFlight(),
		RepInFlight:     s.repNet.InFlight(),
		Dump:            dump.String(),
	}
}
