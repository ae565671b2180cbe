package noc

import (
	"fmt"
	"sort"
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

// DumpState renders StateSnapshot as text: the payload of watchdog
// failures (deadlock/starvation reports). Safe at any cycle boundary — it
// only reads.
func (n *Network) DumpState() string { return n.StateSnapshot().String() }

// OldestPackets returns up to k distinct in-flight packets ordered by
// CreatedAt (oldest first, packet ID tie-break): the packets of the live
// packet-table slots, each of which has at least one flit in the network.
// Diagnostics use it, not the hot loop.
func (n *Network) OldestPackets(k int) []*Packet {
	var pkts []*Packet
	for _, p := range n.pkts.pkts {
		if p != nil {
			pkts = append(pkts, p)
		}
	}
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
// or 0 when the network holds none: the same answer as OldestPackets(1),
// read as a minimum of CreatedAt over the live packet-table slots. It
// allocates nothing — the starvation watchdog calls it every poll.
func (n *Network) OldestPacketAge() int64 {
	oldest := n.now // no packet is younger than the current cycle
	if n.pkts.live() > 0 {
		for _, p := range n.pkts.pkts {
			if p != nil {
				oldest = min(oldest, p.CreatedAt)
			}
		}
	}
	return n.now - oldest
}
