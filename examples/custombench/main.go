// custombench shows the workload API: define a brand-new synthetic kernel
// (here, a pointer-chasing graph workload that is not in the 30-benchmark
// suite) and compare injection schemes on it.
//
//	go run ./examples/custombench
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	// A custom kernel: very memory-bound, read-only, divergent (poor
	// coalescing), with almost no reuse — the worst case for the reply
	// network.
	kernel := trace.Kernel{
		Name:          "ptrchase",
		Sens:          trace.High,
		WarpsPerCore:  32,
		ComputePerMem: 2,
		ReadFrac:      0.98,
		CoalesceMean:  3.0,
		Locality:      0.05,
		HotLines:      32,
		L2Frac:        0.15,
		SharedLines:   2048,
		StreamLines:   1 << 22,
	}
	if err := kernel.Validate(); err != nil {
		log.Fatal(err)
	}

	schemes := []core.Scheme{
		core.AdaBaseline, core.AdaMultiPort, core.AccSupply,
		core.AccConsume, core.AccBothNoPriority, core.AdaARI,
	}
	fmt.Printf("custom kernel %q across schemes:\n\n", kernel.Name)
	fmt.Printf("%-22s %8s %10s\n", "scheme", "IPC", "vs base")
	var baseIPC float64
	for _, s := range schemes {
		cfg := core.DefaultConfig()
		cfg.Scheme = s
		cfg.WarmupCycles = 1500
		cfg.MeasureCycles = 6000
		sim, err := core.NewSimulator(cfg, kernel)
		if err != nil {
			log.Fatal(err)
		}
		r, err := sim.RunChecked(core.CheckOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if s == core.AdaBaseline {
			baseIPC = r.IPC
		}
		fmt.Printf("%-22s %8.3f %+9.1f%%\n", s, r.IPC, 100*(r.IPC/baseIPC-1))
	}
	fmt.Println("\n(Note the Fig 10 shape: supply-only and consume-only do little on")
	fmt.Println(" their own; the combination removes the injection bottleneck.)")
}
