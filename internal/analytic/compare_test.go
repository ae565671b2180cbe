package analytic

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/trace"
)

// TestCompareFabricatedResults feeds Compare results built from the model's
// own estimates — IPC halved, reply latency doubled, or nothing measured —
// so every band's errors are known exactly, and checks the (kernel, scheme)
// order and the shape checks. No simulation runs.
func TestCompareFabricatedResults(t *testing.T) {
	cfg := core.DefaultConfig()
	kernels := trace.Suite()[:2]
	schemes := ValidationSchemes()
	res := make([][]core.Result, len(kernels))
	for k, kernel := range kernels {
		res[k] = make([]core.Result, len(schemes))
		for s, sch := range schemes {
			if k == 1 && s == 0 {
				continue // nothing measured: sim == 0 on both metrics
			}
			c := cfg
			c.Scheme = sch
			m, err := NewModel(c)
			if err != nil {
				t.Fatal(err)
			}
			est := m.Estimate(kernel)
			res[k][s].IPC = est.IPC / 2
			res[k][s].Rep.Latency[noc.ReadReply].Add(2 * est.RepLatency)
		}
	}
	bands, err := Compare(cfg, kernels, schemes, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != len(kernels)*len(schemes) {
		t.Fatalf("%d bands, want %d", len(bands), len(kernels)*len(schemes))
	}
	for i, b := range bands {
		k, s := i/len(schemes), i%len(schemes)
		if b.Bench != kernels[k].Name || b.Scheme != schemes[s].String() {
			t.Fatalf("band %d is %s/%s, want %s/%s", i, b.Bench, b.Scheme, kernels[k].Name, schemes[s])
		}
		if b.SimIPC != res[k][s].IPC || b.SimRepLatency != res[k][s].Rep.AvgLatency(noc.ReadReply, noc.WriteReply) {
			t.Errorf("%s/%s: sim side %v/%v not taken from the results", b.Bench, b.Scheme, b.SimIPC, b.SimRepLatency)
		}
		wantIPC, wantRep := 1.0, -0.5
		if k == 1 && s == 0 {
			wantIPC, wantRep = math.Inf(1), math.Inf(1)
		}
		if b.IPCErr != wantIPC || b.RepErr != wantRep {
			t.Errorf("%s/%s: errors ipc %v rep %v, want %v %v", b.Bench, b.Scheme, b.IPCErr, b.RepErr, wantIPC, wantRep)
		}
	}

	if relErr(0, 0) != 0 {
		t.Errorf("relErr(0, 0) = %v, want 0", relErr(0, 0))
	}
	if _, err := Compare(cfg, kernels, schemes, res[:1]); err == nil {
		t.Error("one result row for two kernels accepted")
	}
	res[0] = res[0][:1]
	if _, err := Compare(cfg, kernels, schemes, res); err == nil {
		t.Error("one result for three schemes accepted")
	}
}
