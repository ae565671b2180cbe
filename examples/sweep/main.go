// sweep explores the design space of §4.2: injection-port crossbar speedup
// S=1..4 crossed with VC count, on one benchmark, and prints where eq. (1)
// and eq. (2) predict the knee.
//
//	go run ./examples/sweep [-bench kmeans]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/trace"
)

func main() {
	bench := flag.String("bench", "kmeans", "benchmark to sweep")
	cycles := flag.Int64("cycles", 6000, "measured cycles per point")
	flag.Parse()

	kernel, err := trace.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}

	run := func(vcs, speedup int) core.Result {
		cfg := core.DefaultConfig()
		cfg.Scheme = core.AdaARI
		cfg.VCs = vcs
		cfg.InjSpeedup = speedup
		cfg.WarmupCycles = 1500
		cfg.MeasureCycles = *cycles
		sim, err := core.NewSimulator(cfg, kernel)
		if err != nil {
			log.Fatal(err)
		}
		r, err := sim.RunChecked(core.CheckOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	fmt.Printf("benchmark %s: IPC for VC count x injection speedup (Ada-ARI)\n\n", *bench)
	fmt.Printf("%6s", "VCs\\S")
	for s := 1; s <= 4; s++ {
		fmt.Printf(" %8d", s)
	}
	fmt.Println()
	var peak95 float64
	for _, vcs := range []int{2, 4} {
		fmt.Printf("%6d", vcs)
		for s := 1; s <= 4; s++ {
			if s > vcs {
				fmt.Printf(" %8s", "-") // eq. (2): S <= NVC
				continue
			}
			r := run(vcs, s)
			fmt.Printf(" %8.3f", r.IPC)
			if vcs == 4 && s == 4 {
				peak95 = r.ReplyInjPeakWin95
			}
		}
		fmt.Println()
	}

	// Eq. (1) sizing from the measured peak injection rate: packets per
	// 100-cycle window at the 95th percentile, per MC, times the average
	// flits per reply packet.
	longPkt := noc.PacketSize(noc.ReadReply, 128, 128)
	ratePerMC := peak95 / 100 / 8
	need := core.ChooseSpeedup(ratePerMC, float64(longPkt), 4, 4)
	fmt.Printf("\neq. (1): 95th-pct peak injection %.2f pkt/100cyc/MC x %d flits -> minimal S = %d\n",
		peak95/8, longPkt, need)
	fmt.Println("eq. (2): S <= min(4 output ports, VCs); the paper picks S = 4.")
}
