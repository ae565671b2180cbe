package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/rng"
	"repro/internal/stats"
)

// LoadLatency is the classic NoC characterisation, run on the reply
// network standalone with the paper's few-to-many pattern (8 MCs -> 28
// CCs): average packet latency versus offered load, for the enhanced
// baseline and for ARI. ARI moves the saturation point — the same story as
// the full-system figures, isolated from the GPU model.
func LoadLatency(r *Runner) (*Figure, error) {
	loads := []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0}
	cycles := int(r.Base.MeasureCycles)
	if cycles < 2000 {
		cycles = 2000
	}

	t := stats.NewTable("offered (pkt/pkt-time/MC)", "baseline latency", "ARI latency", "baseline thruput", "ARI thruput")
	var maxBase, maxARI float64
	for _, load := range loads {
		bl, bt, err := replyNetPoint(r.Base, false, load, cycles)
		if err != nil {
			return nil, err
		}
		al, at, err := replyNetPoint(r.Base, true, load, cycles)
		if err != nil {
			return nil, err
		}
		if bt > maxBase {
			maxBase = bt
		}
		if at > maxARI {
			maxARI = at
		}
		t.AddRow(fmt.Sprintf("%.1f", load),
			fmt.Sprintf("%.1f", bl), fmt.Sprintf("%.1f", al),
			fmt.Sprintf("%.3f", bt), fmt.Sprintf("%.3f", at))
	}
	return &Figure{
		ID:    "loadlat",
		Title: "Extension: reply-network latency vs offered load (few-to-many synthetic traffic)",
		Paper: "(beyond the paper) ARI lifts the injection-limited saturation throughput",
		Table: t,
		Summary: map[string]float64{
			// Saturation throughput in delivered packets/cycle/MC: the
			// baseline pins near 1 flit/cycle over the 9-flit packet
			// (~0.11); ARI is bounded by the mesh around the MCs instead.
			"baseline_saturation_throughput": maxBase,
			"ari_saturation_throughput":      maxARI,
			"saturation_gain":                safeDiv(maxARI, maxBase) - 1,
		},
	}, nil
}

// replyNetPoint measures (avg latency, delivered pkts/cycle/MC) at one
// offered load on a standalone reply network, built as the full system
// builds it under Ada-Baseline or Ada-ARI.
func replyNetPoint(base core.Config, ari bool, load float64, cycles int) (latency, throughput float64, err error) {
	base.Scheme = core.AdaBaseline
	if ari {
		base.Scheme = core.AdaARI
	}
	cfg, mcs, ccs := core.ReplyNetwork(base)
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		return 0, 0, err
	}
	var delivered uint64
	net.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) { delivered++ })

	longPkt := cfg.LongPacketFlits()
	perCycle := load / float64(longPkt)
	src := rng.New(base.Seed ^ 0xA51)
	for c := 0; c < cycles; c++ {
		for _, mc := range mcs {
			if src.Float64() < perCycle {
				net.Inject(mc, &noc.Packet{
					Type: noc.ReadReply,
					Dst:  ccs[src.Intn(len(ccs))],
					Size: longPkt,
				})
			}
		}
		net.Step()
	}
	st := net.Stats()
	lat := st.AvgLatency(noc.ReadReply)
	thr := float64(delivered) / float64(cycles) / float64(len(mcs))
	return lat, thr, nil
}
