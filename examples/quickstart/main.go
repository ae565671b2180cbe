// Quickstart: build a full-system simulator for one benchmark, run the
// enhanced baseline and ARI, and print the headline comparison — the
// 60-second version of the paper's story.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	// Pick a highly NoC-sensitive benchmark (§6.2 class "high").
	kernel, err := trace.ByName("bfs")
	if err != nil {
		log.Fatal(err)
	}

	run := func(scheme core.Scheme) core.Result {
		cfg := core.DefaultConfig() // Table I: 6x6 mesh, 28 CCs + 8 MCs
		cfg.Scheme = scheme
		cfg.WarmupCycles = 2000
		cfg.MeasureCycles = 8000
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

	base := run(core.AdaBaseline)
	ari := run(core.AdaARI)

	fmt.Printf("benchmark: %s (NoC sensitivity: %s)\n\n", kernel.Name, kernel.Sens)
	fmt.Printf("%-22s %10s %14s %12s\n", "scheme", "IPC", "stall/reply", "NI occ")
	for _, r := range []core.Result{base, ari} {
		stallPerReply := 0.0
		if r.RepliesSent > 0 {
			stallPerReply = float64(r.MCStallTime) / float64(r.RepliesSent)
		}
		fmt.Printf("%-22s %10.3f %14.1f %12.1f\n",
			r.Scheme, r.IPC, stallPerReply, r.NIOccAvgFlits)
	}

	fmt.Printf("\nARI IPC gain: %+.1f%%   MC stall reduction: %.1f%%\n",
		100*(ari.IPC/base.IPC-1),
		100*(1-float64(ari.MCStallTime)/float64(ari.RepliesSent)/
			(float64(base.MCStallTime)/float64(base.RepliesSent))))
	fmt.Println("\n(The paper's Fig 11/12: ARI removes the reply injection bottleneck,")
	fmt.Println(" lifting IPC and cutting the time reply data stalls in the MCs.)")
}
