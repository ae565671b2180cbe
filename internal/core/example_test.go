package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Example runs the Table I system on one benchmark under the baseline and
// under ARI, printing whether ARI won (it must, on a NoC-bound kernel).
func Example() {
	kernel, err := trace.ByName("bfs")
	if err != nil {
		fmt.Println(err)
		return
	}
	run := func(s core.Scheme) float64 {
		cfg := core.DefaultConfig()
		cfg.Scheme = s
		cfg.WarmupCycles = 500
		cfg.MeasureCycles = 2000
		sim, err := core.NewSimulator(cfg, kernel)
		if err != nil {
			fmt.Println(err)
			return 0
		}
		r, err := sim.RunChecked(core.CheckOptions{})
		if err != nil {
			fmt.Println(err)
			return 0
		}
		return r.IPC
	}
	base := run(core.AdaBaseline)
	ari := run(core.AdaARI)
	fmt.Println("ARI faster:", ari > base)
	// Output:
	// ARI faster: true
}

// ExampleChooseSpeedup applies the paper's eq. (1)/(2) sizing rule.
func ExampleChooseSpeedup() {
	// A peak ideal injection rate of 0.3 packets/cycle with ~8.2 flits per
	// reply packet needs ceil(0.3*8.2)=3 switch-ports; a mesh bounds S at
	// min(4 outputs, 4 VCs).
	fmt.Println(core.ChooseSpeedup(0.3, 8.2, 4, 4))
	fmt.Println(core.ChooseSpeedup(0.9, 8.2, 4, 4))
	// Output:
	// 3
	// 4
}
