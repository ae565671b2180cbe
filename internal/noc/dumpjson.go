package noc

import (
	"fmt"
	"strings"
)

// PacketDump is the JSON form of one in-flight packet's header state.
type PacketDump struct {
	ID        uint64 `json:"id"`
	Type      string `json:"type"`
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Size      int    `json:"size"`
	Priority  int    `json:"priority"`
	CreatedAt int64  `json:"created_at"`
	Age       int64  `json:"age"`
}

// VCDump is the JSON form of one non-idle input VC.
type VCDump struct {
	VC       int         `json:"vc"`
	State    string      `json:"state"`
	Buffered int         `json:"buffered"`
	Head     *PacketDump `json:"head,omitempty"`
	// HeadFlit is the buffered front flit's index within Head.
	HeadFlit int   `json:"head_flit,omitempty"`
	OutPort  int   `json:"out_port,omitempty"`
	OutVC    int   `json:"out_vc,omitempty"`
	Waiting  int64 `json:"waiting,omitempty"`
}

// InPortDump is the JSON form of one router input port with non-idle VCs or
// staged arrivals.
type InPortDump struct {
	Port   int      `json:"port"`
	VCs    []VCDump `json:"vcs,omitempty"`
	Staged int      `json:"staged_arrivals,omitempty"`
	// FrozenUntil is the horizon of the port's last fault-injected freeze:
	// the port is frozen while the dump's Cycle is below it.
	FrozenUntil int64 `json:"frozen_until,omitempty"`
}

// OutPortDump is the JSON form of one router output port's credit state.
type OutPortDump struct {
	Port int `json:"port"`
	// Credits counts, per downstream VC, the credits held plus those staged
	// back toward the router: a router that slept through its credit returns
	// applies them only when it next runs, so the sum is what the dump
	// reports whatever the stepping schedule.
	Credits []int `json:"credits"`
	Owners  []int `json:"owners"`
	// StalledUntil is the horizon of the link's last fault-injected stall:
	// the port is stalled while the dump's Cycle is below it.
	StalledUntil int64 `json:"stalled_until,omitempty"`
}

// RouterDump is the JSON form of one non-quiescent router (plus its node's
// NI and ejector levels).
type RouterDump struct {
	ID            int           `json:"id"`
	MC            bool          `json:"mc,omitempty"`
	Flits         int           `json:"flits"`
	Ins           []InPortDump  `json:"ins,omitempty"`
	Outs          []OutPortDump `json:"outs,omitempty"`
	NIQueuedFlits int           `json:"ni_queued_flits,omitempty"`
	NIMode        string        `json:"ni_mode,omitempty"`
	EjectorFlits  int           `json:"ejector_flits,omitempty"`
}

// StateDump is a network's non-quiescent state: JSON-encodable so a live
// /debug/nocstate request is diagnosable remotely, and rendered as text
// (String) for watchdog failures.
type StateDump struct {
	Cycle         int64        `json:"cycle"`
	InFlight      int          `json:"in_flight"`
	Routers       []RouterDump `json:"routers,omitempty"`
	OldestPackets []PacketDump `json:"oldest_packets,omitempty"`
}

// packetDump converts one packet header at the current cycle.
func (n *Network) packetDump(p *Packet) PacketDump {
	return PacketDump{
		ID:        p.ID,
		Type:      p.Type.String(),
		Src:       p.Src,
		Dst:       p.Dst,
		Size:      p.Size,
		Priority:  p.Priority,
		CreatedAt: p.CreatedAt,
		Age:       n.now - p.CreatedAt,
	}
}

// StateSnapshot captures every router with buffered, staged or queued
// flits — its input VC states and ownership, the output-port credit map, NI
// and ejector levels — and the oldest in-flight packets. It only reads, and
// it must run on the goroutine stepping the network (a watchdog poll, or
// between Steps).
func (n *Network) StateSnapshot() StateDump {
	d := StateDump{Cycle: n.now, InFlight: n.inFlight}
	for id := range n.routers {
		r, ni, e := &n.routers[id], &n.nis[id], &n.ejectors[id]
		if r.flitCount() == 0 && e.flitCount() == 0 && ni.queuedFlits() == 0 {
			continue
		}
		rd := RouterDump{ID: r.id, MC: r.isMC, Flits: r.flitCount(), EjectorFlits: e.flitCount()}
		for p := range r.in {
			ip := InPortDump{Port: p, Staged: countStaged(r.staged, p, -1), FrozenUntil: r.in[p].frozenUntil}
			for v := 0; v < r.nvc; v++ {
				vc := &r.vcs[p*r.nvc+v]
				if vc.buf.empty() && vc.state == vcIdle {
					continue
				}
				vd := VCDump{VC: v, State: vc.state.String(), Buffered: vc.buf.len()}
				if !vc.buf.empty() {
					f := vc.buf.front()
					pd := n.packetDump(n.pkts.of(f))
					vd.Head, vd.HeadFlit = &pd, int(f.seq)
				}
				if vc.state != vcIdle {
					vd.OutPort, vd.OutVC = int(vc.outPort), int(vc.outVC)
					vd.Waiting = n.now - vc.waitSince
				}
				ip.VCs = append(ip.VCs, vd)
			}
			if len(ip.VCs) > 0 || ip.Staged > 0 {
				rd.Ins = append(rd.Ins, ip)
			}
		}
		for o := range r.out {
			op := &r.out[o]
			od := OutPortDump{Port: o, StalledUntil: op.stalledUntil}
			for v := range op.vcs {
				od.Credits = append(od.Credits, int(op.vcs[v].credits+op.creditIn[v]))
				od.Owners = append(od.Owners, op.owner(v, r.nvc))
			}
			rd.Outs = append(rd.Outs, od)
		}
		if q := ni.queuedFlits(); q > 0 {
			rd.NIQueuedFlits, rd.NIMode = q, ni.mode.String()
		}
		d.Routers = append(d.Routers, rd)
	}
	for _, p := range n.OldestPackets(5) {
		d.OldestPackets = append(d.OldestPackets, n.packetDump(p))
	}
	return d
}

// String renders the dump as the watchdog's human-readable diagnostic.
func (d StateDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network @cycle %d: inFlight=%d\n", d.Cycle, d.InFlight)
	for _, r := range d.Routers {
		tag := ""
		if r.MC {
			tag = " [MC]"
		}
		fmt.Fprintf(&b, "router %d%s: %d flits\n", r.ID, tag, r.Flits)
		for _, ip := range r.Ins {
			for _, vc := range ip.VCs {
				fmt.Fprintf(&b, "  in %d vc %d: state=%s buf=%d", ip.Port, vc.VC, vc.State, vc.Buffered)
				if h := vc.Head; h != nil {
					fmt.Fprintf(&b, " head=pkt %d %s %d->%d flit %d/%d age=%d",
						h.ID, h.Type, h.Src, h.Dst, vc.HeadFlit, h.Size, h.Age)
				}
				if vc.State != vcIdle.String() {
					fmt.Fprintf(&b, " out=%d/%d waiting=%d", vc.OutPort, vc.OutVC, vc.Waiting)
				}
				if d.Cycle < ip.FrozenUntil {
					fmt.Fprintf(&b, " FROZEN(until %d)", ip.FrozenUntil)
				}
				b.WriteByte('\n')
			}
			if ip.Staged > 0 {
				fmt.Fprintf(&b, "  in %d: %d staged arrivals\n", ip.Port, ip.Staged)
			}
		}
		for _, op := range r.Outs {
			creds := make([]string, len(op.Credits))
			for v, c := range op.Credits {
				creds[v] = fmt.Sprintf("%d(own %d)", c, op.Owners[v])
			}
			stall := ""
			if d.Cycle < op.StalledUntil {
				stall = fmt.Sprintf(" STALLED(until %d)", op.StalledUntil)
			}
			fmt.Fprintf(&b, "  out %d: credits=[%s]%s\n", op.Port, strings.Join(creds, " "), stall)
		}
		if r.NIQueuedFlits > 0 {
			fmt.Fprintf(&b, "  ni: %d queued flits (mode %s)\n", r.NIQueuedFlits, r.NIMode)
		}
		if r.EjectorFlits > 0 {
			fmt.Fprintf(&b, "  ejector: %d flits\n", r.EjectorFlits)
		}
	}
	if len(d.OldestPackets) > 0 {
		b.WriteString("oldest packets:\n")
		for _, p := range d.OldestPackets {
			fmt.Fprintf(&b, "  pkt %d %s %d->%d size=%d prio=%d created=%d age=%d\n",
				p.ID, p.Type, p.Src, p.Dst, p.Size, p.Priority, p.CreatedAt, p.Age)
		}
	}
	return b.String()
}
