// noctraffic drives the reply network standalone with the paper's
// few-to-many traffic pattern (8 MC injectors -> 28 CC sinks) and prints a
// per-100-cycle view of the injection backlog — the §3 motivation
// experiment, without the GPU model in the way.
//
//	go run ./examples/noctraffic [-load 0.5] [-ari]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/noc"
	"repro/internal/rng"
)

func main() {
	load := flag.Float64("load", 1.2, "offered load: long packets per MC per packet-time")
	ari := flag.Bool("ari", false, "use the ARI injection architecture at the MCs")
	cycles := flag.Int("cycles", 3000, "cycles to simulate")
	flag.Parse()

	mesh := noc.Mesh{Width: 6, Height: 6}
	mcs := noc.DiamondMCPlacement(mesh, 8)
	isMC := map[int]bool{}
	for _, n := range mcs {
		isMC[n] = true
	}

	cfg := noc.Config{
		Mesh:      mesh,
		VCs:       4,
		LinkBits:  128,
		DataBytes: 128,
		Routing:   noc.RouteMinAdaptive,
	}
	if *ari {
		cfg.Nodes = make([]noc.NodeConfig, mesh.Nodes())
		for _, n := range mcs {
			cfg.Nodes[n] = noc.NodeConfig{NI: noc.NISplit, InjSpeedup: 4}
		}
		cfg.PriorityLevels = 2
	}
	net, err := noc.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var delivered uint64
	net.SetEjectHandler(func(node int, pkt *noc.Packet, now int64) { delivered++ })

	// Few-to-many: each MC offers `load` long packets per packet-time to
	// uniformly random CC destinations.
	longPkt := noc.PacketSize(noc.ReadReply, cfg.LinkBits, cfg.DataBytes)
	perCycle := *load / float64(longPkt)
	src := rng.New(42)
	var ccs []int
	for n := 0; n < mesh.Nodes(); n++ {
		if !isMC[n] {
			ccs = append(ccs, n)
		}
	}

	fmt.Printf("reply network, %d MCs -> %d CCs, offered load %.2f pkt/pkt-time/MC, ARI=%v\n\n",
		len(mcs), len(ccs), *load, *ari)
	fmt.Printf("%8s %12s %12s %14s\n", "cycle", "delivered", "in-flight", "rejected")

	var rejected uint64
	for c := 0; c < *cycles; c++ {
		for _, mc := range mcs {
			if src.Float64() < perCycle {
				pkt := &noc.Packet{
					Type: noc.ReadReply,
					Dst:  ccs[src.Intn(len(ccs))],
					Size: longPkt,
				}
				if !net.Inject(mc, pkt) {
					rejected++
				}
			}
		}
		net.Step()
		if (c+1)%500 == 0 {
			fmt.Printf("%8d %12d %12d %14d\n", c+1, delivered, net.InFlight(), rejected)
		}
	}

	st := net.Stats()
	fmt.Printf("\nlink util %.4f flit/cycle; injection-link util (per MC) %.4f\n",
		st.MeshLinkUtil(), float64(st.InjLinkFlits)/float64(st.Cycles)/float64(len(mcs)))
	fmt.Printf("avg NI occupancy %.1f flits (capacity %d)\n",
		net.NIOccupancyAvgFlits(), net.NIQueueCapacityFlits(mcs[0]))
	fmt.Printf("avg reply packet latency %.1f cycles\n", st.AvgLatency(noc.ReadReply))
	fmt.Println("\n(Compare -ari against the default: the backlog and rejects collapse.)")
}
