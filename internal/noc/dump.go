package noc

import (
	"fmt"
	"sort"
	"strings"
)

// String names the input-VC states for diagnostics.
func (s vcState) String() string {
	switch s {
	case vcIdle:
		return "idle"
	case vcWaitVC:
		return "waitVC"
	case vcActive:
		return "active"
	default:
		return fmt.Sprintf("vcState(%d)", uint8(s))
	}
}

// DumpState returns a human-readable diagnostic of all non-quiescent state:
// per-router input-VC states and ownership, the output-port credit map,
// staged arrivals, NI queue levels, and the oldest in-flight packets. It is
// the payload of watchdog failures (deadlock/starvation reports) and is safe
// to call at any cycle boundary — it only reads.
func (n *Network) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network @cycle %d: inFlight=%d\n", n.now, n.inFlight)
	for id := range n.routers {
		r, ni, e := &n.routers[id], &n.nis[id], &n.ejectors[id]
		if r.flitCount() == 0 && e.flitCount() == 0 && ni.queuedFlits() == 0 {
			continue
		}
		tag := ""
		if r.isMC {
			tag = " [MC]"
		}
		fmt.Fprintf(&b, "router %d%s: %d flits\n", r.id, tag, r.flitCount())
		for p := range r.in {
			ip := &r.in[p]
			for v := 0; v < r.nvc; v++ {
				vc := &r.vcs[p*r.nvc+v]
				if vc.buf.empty() && vc.state == vcIdle {
					continue
				}
				fmt.Fprintf(&b, "  in %d vc %d: state=%s buf=%d", p, v, vc.state, vc.buf.len())
				if !vc.buf.empty() {
					f := vc.buf.front()
					fmt.Fprintf(&b, " head=pkt %d %s %d->%d flit %d/%d age=%d",
						f.pkt.ID, f.pkt.Type, f.pkt.Src, f.pkt.Dst, f.seq, f.pkt.Size, n.now-f.pkt.CreatedAt)
				}
				if vc.state != vcIdle {
					fmt.Fprintf(&b, " out=%d/%d waiting=%d", vc.outPort, vc.outVC, n.now-vc.waitSince)
				}
				if n.now < ip.frozenUntil {
					fmt.Fprintf(&b, " FROZEN(until %d)", ip.frozenUntil)
				}
				b.WriteByte('\n')
			}
			if staged := countStaged(r.staged, p, -1); staged > 0 {
				fmt.Fprintf(&b, "  in %d: %d staged arrivals\n", p, staged)
			}
		}
		for o := range r.out {
			op := &r.out[o]
			var creds []string
			for v := range op.vcs {
				creds = append(creds, fmt.Sprintf("%d(own %d)", op.vcs[v].credits, op.owner(v, r.nvc)))
			}
			stall := ""
			if n.now < op.stalledUntil {
				stall = fmt.Sprintf(" STALLED(until %d)", op.stalledUntil)
			}
			fmt.Fprintf(&b, "  out %d: credits=[%s]%s\n", o, strings.Join(creds, " "), stall)
		}
		if ni.queuedFlits() > 0 {
			fmt.Fprintf(&b, "  ni: %d queued flits (mode %s)\n", ni.queuedFlits(), ni.mode)
		}
		if e.flitCount() > 0 {
			fmt.Fprintf(&b, "  ejector: %d flits\n", e.flitCount())
		}
	}
	if old := n.OldestPackets(5); len(old) > 0 {
		b.WriteString("oldest packets:\n")
		for _, p := range old {
			fmt.Fprintf(&b, "  pkt %d %s %d->%d size=%d prio=%d created=%d age=%d\n",
				p.ID, p.Type, p.Src, p.Dst, p.Size, p.Priority, p.CreatedAt, n.now-p.CreatedAt)
		}
	}
	return b.String()
}

// forEachBufferedPacket visits every distinct packet with at least one flit
// resident in the network (NI queues, VC buffers, staged arrivals, ejector
// reassembly buffers).
func (n *Network) forEachBufferedPacket(visit func(*Packet)) {
	seen := make(map[*Packet]bool)
	mark := func(p *Packet) {
		if !seen[p] {
			seen[p] = true
			visit(p)
		}
	}
	markQueue := func(q *flitQueue) {
		for i := 0; i < q.len(); i++ {
			mark(q.at(i).pkt)
		}
	}
	markStaged := func(staged []stagedFlit) {
		for i := range staged {
			mark(staged[i].f.pkt)
		}
	}
	for i := range n.nis {
		ni := &n.nis[i]
		markQueue(&ni.queue)
		for v := range ni.splitQueues {
			markQueue(&ni.splitQueues[v])
		}
	}
	for i := range n.routers {
		r := &n.routers[i]
		markStaged(r.staged)
		for g := range r.vcs {
			markQueue(&r.vcs[g].buf)
		}
	}
	for i := range n.ejectors {
		e := &n.ejectors[i]
		markStaged(e.arrivals)
		for v := range e.vcs {
			markQueue(&e.vcs[v])
		}
	}
}

// OldestPackets returns up to k distinct in-flight packets ordered by
// CreatedAt (oldest first, packet ID tie-break). O(buffers); diagnostics and
// the starvation watchdog use it, not the hot loop.
func (n *Network) OldestPackets(k int) []*Packet {
	var pkts []*Packet
	n.forEachBufferedPacket(func(p *Packet) { pkts = append(pkts, p) })
	sort.Slice(pkts, func(i, j int) bool {
		if pkts[i].CreatedAt != pkts[j].CreatedAt {
			return pkts[i].CreatedAt < pkts[j].CreatedAt
		}
		return pkts[i].ID < pkts[j].ID
	})
	if len(pkts) > k {
		pkts = pkts[:k]
	}
	return pkts
}

// OldestPacketAge returns the age in cycles of the oldest in-flight packet,
// or 0 when the network holds none.
func (n *Network) OldestPacketAge() int64 {
	old := n.OldestPackets(1)
	if len(old) == 0 {
		return 0
	}
	return n.now - old[0].CreatedAt
}
