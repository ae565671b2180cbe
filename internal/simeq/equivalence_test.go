package simeq

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// runPair builds two simulators for (cfg, k) — one stepping event-driven,
// one switched to the scan-everything oracle through the test-only hook —
// drives each with run and returns both encoded Results.
func runPair(t *testing.T, cfg core.Config, k trace.Kernel, run func(*core.Simulator) core.Result) (event, scan []byte) {
	t.Helper()
	encoded := func(useScan bool) []byte {
		sim, err := core.NewSimulator(cfg, k)
		if err != nil {
			t.Fatalf("build %s/%s: %v", k.Name, cfg.Scheme, err)
		}
		if useScan {
			sim.UseScanReference()
		}
		enc, err := Encode(run(sim))
		if err != nil {
			t.Fatalf("encode %s/%s: %v", k.Name, cfg.Scheme, err)
		}
		return enc
	}
	return encoded(false), encoded(true)
}

// TestEventDrivenMatchesScan is the differential gate for the event-driven
// stepping: every suite kernel, under every covered reply-path variant,
// must produce a byte-identical encoded Result with and without the scan
// reference. Any skipped component that was not actually idle — a router
// visited a cycle late, an arbiter pointer not fast-forwarded, a DRAM clock
// left behind — shows up here as a divergence.
func TestEventDrivenMatchesScan(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			for _, k := range trace.Suite() {
				event, scan := runPair(t, v.Apply(ShortConfig()), k, (*core.Simulator).Run)
				if !bytes.Equal(event, scan) {
					t.Fatalf("%s/%s: event-driven result differs from scan reference\n%s",
						k.Name, v.Name, diffLine(event, scan))
				}
			}
		})
	}
}

// TestEventDrivenMatchesScanFixedWork repeats the differential on the
// fixed-work entry point (RunWork), whose stop condition reads core
// instruction counters every cycle and therefore exercises the core fast
// path interleaved with measurement.
func TestEventDrivenMatchesScanFixedWork(t *testing.T) {
	kernels := []string{"bfs", "lud", "blackScholes"}
	for _, name := range kernels {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range Variants() {
			event, scan := runPair(t, v.Apply(ShortConfig()), k, func(sim *core.Simulator) core.Result {
				return sim.RunWork(20000, 2000)
			})
			if !bytes.Equal(event, scan) {
				t.Fatalf("%s/%s: fixed-work event-driven result differs\n%s",
					name, v.Name, diffLine(event, scan))
			}
		}
	}
}
