// Equivalence lock for the observability layer: attaching the metrics
// registry and packet tracers to a simulation must leave its Result
// byte-identical to an uninstrumented run — observation only, no Heisenberg.
package obs_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simeq"
	"repro/internal/trace"
)

// checkInstrumentedIdentity runs cfg on bfs plainly and with the registry and
// both tracers attached, requires byte-identical Results, and requires that
// the instruments saw data: samples, GPU and reply probes, and completed
// lifecycles on both fabrics.
func checkInstrumentedIdentity(t *testing.T, cfg core.Config) {
	t.Helper()
	kernel, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	want := simeq.RunEncoded(t, cfg, kernel)

	sim, err := core.NewSimulator(cfg, kernel)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(50)
	obs.AttachSimulator(reg, sim)
	reg.Reserve(int((cfg.WarmupCycles+cfg.MeasureCycles)/50) + 2)
	reqColl, repColl := obs.AttachTracers(sim, 2)
	res := sim.Run()
	got, err := simeq.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("instrumented run diverged from plain run")
	}

	// The identity must not hold vacuously: the instruments saw data.
	if reg.Samples() == 0 {
		t.Fatal("registry never sampled")
	}
	if reg.Last("gpu.instructions") == 0 && reg.Last("gpu.core_cycles") == 0 {
		t.Fatal("gpu probes recorded nothing")
	}
	if reg.Last("rep.ejected_packets.read_reply") == 0 {
		t.Fatal("reply probes recorded nothing")
	}
	if len(reqColl.Done()) == 0 {
		t.Fatal("request tracer recorded no lifecycles")
	}
	if len(repColl.Done()) == 0 {
		t.Fatal("reply tracer recorded no lifecycles")
	}
	if d := repColl.Decompose(); d.Packets == 0 || d.Total.Value() <= 0 {
		t.Fatalf("decomposition empty: %+v", d)
	}
}

func TestInstrumentedRunIsByteIdentical(t *testing.T) {
	for _, sch := range []core.Scheme{core.XYBaseline, core.AdaARI} {
		t.Run(sch.String(), func(t *testing.T) {
			cfg := simeq.ShortConfig()
			cfg.Scheme = sch
			checkInstrumentedIdentity(t, cfg)
		})
	}
}

// TestBehaviouralFabricAttaches is the same lock on the reply fabrics
// without routers — the ideal fabric and the DA2mesh overlay — which get the
// NetStats probes and trace their own lifecycle events.
func TestBehaviouralFabricAttaches(t *testing.T) {
	ideal := simeq.ShortConfig()
	ideal.Scheme = core.XYBaseline
	ideal.IdealReply = true
	overlay := simeq.ShortConfig()
	overlay.Scheme = core.DA2MeshBase
	overlayARI := simeq.ShortConfig()
	overlayARI.Scheme = core.DA2MeshARI
	for name, cfg := range map[string]core.Config{"IdealReply": ideal, "DA2Mesh": overlay, "DA2Mesh+ARI": overlayARI} {
		t.Run(name, func(t *testing.T) { checkInstrumentedIdentity(t, cfg) })
	}
}
