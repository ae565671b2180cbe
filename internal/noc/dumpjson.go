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
	Port     int         `json:"port"`
	VC       int         `json:"vc"`
	State    string      `json:"state"`
	Buffered int         `json:"buffered"`
	Head     *PacketDump `json:"head,omitempty"`
	OutPort  int         `json:"out_port,omitempty"`
	OutVC    int         `json:"out_vc,omitempty"`
	Waiting  int64       `json:"waiting,omitempty"`
	Frozen   bool        `json:"frozen,omitempty"`
}

// OutPortDump is the JSON form of one router output port's credit state.
type OutPortDump struct {
	Port    int   `json:"port"`
	Credits []int `json:"credits"`
	Owners  []int `json:"owners"`
	Stalled bool  `json:"stalled,omitempty"`
}

// RouterDump is the JSON form of one non-quiescent router (plus its node's
// NI and ejector levels).
type RouterDump struct {
	ID             int           `json:"id"`
	MC             bool          `json:"mc,omitempty"`
	Flits          int           `json:"flits"`
	VCs            []VCDump      `json:"vcs,omitempty"`
	StagedArrivals int           `json:"staged_arrivals,omitempty"`
	Outs           []OutPortDump `json:"outs,omitempty"`
	NIQueuedFlits  int           `json:"ni_queued_flits,omitempty"`
	EjectorFlits   int           `json:"ejector_flits,omitempty"`
}

// StateDump is the structured counterpart of DumpState: the same non-
// quiescent network state, JSON-encodable so a watchdog trip or a live
// /debug/nocstate request is diagnosable remotely.
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

// StateSnapshot captures the structured form of DumpState: every router with
// buffered, staged or queued flits, its VC and credit state, and the oldest
// in-flight packets. Like DumpState it only reads, and it must run on the
// goroutine stepping the network (a watchdog poll, or between Steps).
func (n *Network) StateSnapshot() StateDump {
	d := StateDump{Cycle: n.now, InFlight: n.inFlight}
	for id := range n.routers {
		r, ni, e := &n.routers[id], &n.nis[id], &n.ejectors[id]
		if r.flitCount() == 0 && e.flitCount() == 0 && ni.queuedFlits() == 0 {
			continue
		}
		rd := RouterDump{ID: r.id, MC: r.isMC, Flits: r.flitCount(), StagedArrivals: len(r.staged)}
		for p := range r.in {
			for v := 0; v < r.nvc; v++ {
				vc := &r.vcs[p*r.nvc+v]
				if vc.buf.empty() && vc.state == vcIdle {
					continue
				}
				vd := VCDump{
					Port:     p,
					VC:       v,
					State:    vc.state.String(),
					Buffered: vc.buf.len(),
					Frozen:   n.now < r.in[p].frozenUntil,
				}
				if !vc.buf.empty() {
					pd := n.packetDump(vc.buf.front().pkt)
					vd.Head = &pd
				}
				if vc.state != vcIdle {
					vd.OutPort, vd.OutVC = int(vc.outPort), int(vc.outVC)
					vd.Waiting = n.now - vc.waitSince
				}
				rd.VCs = append(rd.VCs, vd)
			}
		}
		for o := range r.out {
			op := &r.out[o]
			od := OutPortDump{Port: o, Stalled: n.now < op.stalledUntil}
			for v := range op.vcs {
				od.Credits = append(od.Credits, int(op.vcs[v].credits))
				od.Owners = append(od.Owners, op.owner(v, r.nvc))
			}
			rd.Outs = append(rd.Outs, od)
		}
		rd.NIQueuedFlits = ni.queuedFlits()
		rd.EjectorFlits = e.flitCount()
		d.Routers = append(d.Routers, rd)
	}
	for _, p := range n.OldestPackets(5) {
		d.OldestPackets = append(d.OldestPackets, n.packetDump(p))
	}
	return d
}
