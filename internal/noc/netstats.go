package noc

import "repro/internal/stats"

// NetStats aggregates the observability the paper's analysis needs:
// per-type packet latency (Fig 3, 13), flit-weighted traffic mix (Fig 5),
// link and injection-link utilisation (§3), NI injection-queue occupancy
// (Fig 6) and injection stall behaviour (Fig 12 feeds from the MC side).
type NetStats struct {
	Cycles int64

	// Per packet type.
	PacketsInjected [NumPacketTypes]uint64
	PacketsEjected  [NumPacketTypes]uint64
	FlitsInjected   [NumPacketTypes]uint64
	Latency         [NumPacketTypes]stats.Mean // create -> eject, cycles
	NetLatency      [NumPacketTypes]stats.Mean // inject -> eject, cycles

	// Link utilisation: flit traversals over router-to-router mesh links,
	// and over NI-to-router injection links, each with the corresponding
	// capacity (links x cycles) to form flits/cycle/link.
	MeshLinkFlits    uint64
	MeshLinks        int
	InjLinkFlits     uint64
	InjLinks         int
	EjectFlits       uint64
	SwitchTraversals uint64
	// CreditStallCycles is always 0 (every packet fits its VC, granted with
	// credits for all of it). It keeps encoded Results' bytes until the next
	// exp.journalVersion bump, which drops it and the ledger's row.
	CreditStallCycles uint64

	// NIFullRejects counts Offer calls rejected because the NI queue could
	// not take the whole packet (each is one stall observation for Fig 12's
	// underlying mechanism).
	NIFullRejects uint64
}

// AvgLatency returns the mean create-to-eject latency over the given types.
func (s *NetStats) AvgLatency(types ...PacketType) float64 {
	var m stats.Mean
	for _, t := range types {
		m.Merge(s.Latency[t])
	}
	return m.Value()
}

// TotalPackets returns total ejected packets.
func (s *NetStats) TotalPackets() uint64 {
	var n uint64
	for _, c := range s.PacketsEjected {
		n += c
	}
	return n
}

// MeshLinkUtil returns average flits/cycle/link on mesh links.
func (s *NetStats) MeshLinkUtil() float64 {
	if s.Cycles == 0 || s.MeshLinks == 0 {
		return 0
	}
	return float64(s.MeshLinkFlits) / float64(s.Cycles) / float64(s.MeshLinks)
}

// InjLinkUtil returns average flits/cycle/link on NI injection links.
func (s *NetStats) InjLinkUtil() float64 {
	if s.Cycles == 0 || s.InjLinks == 0 {
		return 0
	}
	return float64(s.InjLinkFlits) / float64(s.Cycles) / float64(s.InjLinks)
}

// FlitShare returns the fraction of injected flits belonging to type t
// (the paper's Fig 5 weighting).
func (s *NetStats) FlitShare(t PacketType) float64 {
	var total uint64
	for _, f := range s.FlitsInjected {
		total += f
	}
	if total == 0 {
		return 0
	}
	return float64(s.FlitsInjected[t]) / float64(total)
}

func (s *NetStats) recordEject(p *Packet, now int64) {
	p.EjectedAt = now
	s.PacketsEjected[p.Type]++
	s.Latency[p.Type].Add(float64(now - p.CreatedAt))
	s.NetLatency[p.Type].Add(float64(now - p.InjectedAt))
}
