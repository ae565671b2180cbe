package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/stats"
)

// faultCorruptRates are the per-cycle flit-corruption burst probabilities the
// fault figure sweeps; 0 is the reference point (recovery layer on, nothing
// to recover from), so the other rates isolate the protocol's retransmission
// cost from its standing cost (ACK sideband, buffer backpressure).
var faultCorruptRates = []float64{0, 0.01, 0.03, 0.1}

// FaultFigure measures what fault recovery costs each injection scheme: IPC
// and reply latency for the enhanced baseline, MultiPort and ARI under
// increasing flit-corruption rates, with the recovery protocol layer (CRC
// detection, NACK/ACK, bounded retransmission) enabled everywhere. Corrupted
// packets are never delivered — each is dropped at the receiving NI, NACKed
// and retransmitted — so the performance deltas here are the full price of
// lossless operation under faults. Results average over a high- and a
// medium-intensity benchmark.
func FaultFigure(r *Runner) (*Figure, error) {
	schemes := []core.Scheme{core.AdaBaseline, core.AdaMultiPort, core.AdaARI}

	kernels, err := kernelsNamed("bfs", "histogram")
	if err != nil {
		return nil, err
	}
	// One point per (rate, scheme), rates outermost.
	var points []Point
	for _, rate := range faultCorruptRates {
		for _, s := range schemes {
			points = append(points, Point{fmt.Sprintf("%.2f/%s", rate, s), func(c *core.Config) {
				c.Scheme = s
				// Recovery on at every rate, including 0, so the sweep varies
				// only the fault pressure, never the protocol machinery.
				c.RetransBufPkts = 8
				if rate > 0 {
					c.Fault = fault.Config{Enabled: true, CorruptProb: rate}
				}
			}})
		}
	}
	res, err := r.Grid(kernels, points)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("corrupt_prob", "scheme", "ipc", "rep_latency",
		"corrupt_pkts", "retrans_pkts", "fault_events")
	// ipcAt[rate][scheme] = benchmark-averaged IPC, for the summary ratios.
	ipcAt := make(map[float64]map[core.Scheme]float64)
	p := 0
	for _, rate := range faultCorruptRates {
		ipcAt[rate] = make(map[core.Scheme]float64)
		for _, s := range schemes {
			var ipc, lat float64
			var corrupt, retrans, events uint64
			for k := range kernels {
				rr := res[k][p]
				ipc += rr.IPC
				lat += rr.Rep.AvgLatency(noc.ReadReply, noc.WriteReply)
				corrupt += rr.Recovery.CorruptPackets
				retrans += rr.Recovery.RetransPackets
				events += uint64(rr.FaultEvents)
				// Every drop is NACKed on the spot; retransmissions may trail
				// drops only by the recoveries still in flight when the fixed
				// horizon cut the run (the drained soaks pin exact equality).
				if rr.Recovery.NacksSent != rr.Recovery.CorruptPackets ||
					rr.Recovery.RetransPackets > rr.Recovery.CorruptPackets {
					return nil, fmt.Errorf("exp: fault figure: %s/%s at rate %v: drops=%d nacks=%d retrans=%d",
						rr.Benchmark, s, rate, rr.Recovery.CorruptPackets,
						rr.Recovery.NacksSent, rr.Recovery.RetransPackets)
				}
			}
			nb := float64(len(kernels))
			ipc /= nb
			lat /= nb
			ipcAt[rate][s] = ipc
			t.AddRow(fmt.Sprintf("%.2f", rate), s.String(),
				fmt.Sprintf("%.3f", ipc), fmt.Sprintf("%.1f", lat),
				fmt.Sprintf("%d", corrupt), fmt.Sprintf("%d", retrans),
				fmt.Sprintf("%d", events))
			p++
		}
	}

	worst := faultCorruptRates[len(faultCorruptRates)-1]
	return &Figure{
		ID:    "fault",
		Title: "Extension: scheme performance under flit corruption with full recovery",
		Paper: "(beyond the paper) the NoC bottleneck under lossless fault recovery",
		Table: t,
		Summary: map[string]float64{
			"ari_ipc_keep_at_worst":  safeDiv(ipcAt[worst][core.AdaARI], ipcAt[0][core.AdaARI]),
			"base_ipc_keep_at_worst": safeDiv(ipcAt[worst][core.AdaBaseline], ipcAt[0][core.AdaBaseline]),
			"ari_gain_at_worst":      safeDiv(ipcAt[worst][core.AdaARI], ipcAt[worst][core.AdaBaseline]) - 1,
		},
		Notes: []string{
			"every corrupted packet was detected and NACKed (zero undetected corruption); recoveries still in flight at the horizon may trail the drop count",
			"recovery layer (RetransBufPkts=8) enabled at rate 0 too, so rows differ only in fault pressure",
		},
	}, nil
}
