package noc

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

// StateDump is a fabric's non-quiescent state, encoded as JSON both for a
// live /debug/nocstate request and for a watchdog failure's dump. Routers is
// empty on the behavioural fabrics, which have none.
type StateDump struct {
	Cycle         int64        `json:"cycle"`
	InFlight      int          `json:"in_flight"`
	Routers       []RouterDump `json:"routers,omitempty"`
	OldestPackets []PacketDump `json:"oldest_packets,omitempty"`
}

// StateSnapshot captures every router with buffered, staged or queued
// flits — its input VC states and ownership, the output-port credit map, NI
// and ejector levels — and the oldest in-flight packets. It only reads, and
// it must run on the goroutine stepping the network (a watchdog poll, or
// between Steps).
func (n *Network) StateSnapshot() StateDump {
	d := n.snapshot(n.pkts.appendLive(nil))
	for id := range n.routers {
		r, ni, e := &n.routers[id], &n.nis[id], &n.ejectors[id]
		if r.flitCount() == 0 && e.flitCount() == 0 && ni.queuedFlits() == 0 {
			continue
		}
		rd := RouterDump{ID: r.id, MC: r.isMC, Flits: r.flitCount(), EjectorFlits: e.flitCount()}
		for p := range r.in {
			ip := InPortDump{Port: p, Staged: countStaged(r.staged, p, -1)}
			for v := 0; v < r.nvc; v++ {
				vc := &r.vcs[p*r.nvc+v]
				if vc.buf.empty() && vc.state == vcIdle {
					continue
				}
				vd := VCDump{VC: v, State: vc.state.String(), Buffered: vc.buf.len()}
				if !vc.buf.empty() {
					f := vc.buf.front(n.handles)
					pd := n.packetDump(n.pkts.of(f.h))
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
			od := OutPortDump{Port: o}
			for v := 0; v < r.nvc; v++ {
				od.Credits = append(od.Credits, int(r.outVC(o, v).credits+r.creditIn[o*r.nvc+v]))
				od.Owners = append(od.Owners, r.owner(o, v))
			}
			rd.Outs = append(rd.Outs, od)
		}
		if q := ni.queuedFlits(); q > 0 {
			rd.NIQueuedFlits, rd.NIMode = q, ni.mode.String()
		}
		d.Routers = append(d.Routers, rd)
	}
	return d
}
