package noc

import "fmt"

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

// OldestPackets returns up to k distinct in-flight packets ordered by
// CreatedAt (oldest first, packet ID tie-break): the packets of the live
// packet-table slots, each of which has at least one flit in the network.
// Diagnostics use it, not the hot loop.
func (n *Network) OldestPackets(k int) []*Packet {
	return oldestPackets(n.pkts.appendLive(nil), k)
}

// OldestPacketAge returns the age in cycles of the oldest in-flight packet,
// or 0 when the network holds none: the same answer as OldestPackets(1),
// read as a minimum of CreatedAt over the live packet-table slots. It
// allocates nothing — the starvation watchdog calls it every poll.
func (n *Network) OldestPacketAge() int64 { return n.now - n.pkts.oldest(n.now) }
