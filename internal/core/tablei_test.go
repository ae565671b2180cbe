package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/noc"
)

// TestDefaultConfigMatchesTableI pins the default configuration to the
// paper's Table I, so calibration drift is caught by CI rather than
// discovered in figure output.
func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig()

	// Compute nodes: 28 at 1126 MHz on a 6x6 mesh with 8 MCs.
	if cfg.MeshWidth != 6 || cfg.MeshHeight != 6 {
		t.Fatalf("mesh %dx%d, want 6x6", cfg.MeshWidth, cfg.MeshHeight)
	}
	if got := cfg.MeshWidth*cfg.MeshHeight - cfg.NumMC; got != 28 {
		t.Fatalf("compute nodes = %d, want 28", got)
	}
	if cfg.NumMC != 8 {
		t.Fatalf("MCs = %d, want 8", cfg.NumMC)
	}
	if cfg.CoreClockNum != 1126 || cfg.CoreClockDen != 1000 {
		t.Fatalf("core clock %d/%d, want 1126 MHz", cfg.CoreClockNum, cfg.CoreClockDen)
	}
	if cfg.MemClockNum != 1750 || cfg.MemClockDen != 1000 {
		t.Fatalf("memory clock %d/%d, want 1.75 GHz (GTX980)", cfg.MemClockNum, cfg.MemClockDen)
	}

	// Caches: 16KB L1 per core, 128KB L2 per MC.
	if cfg.Core.L1.SizeBytes != 16<<10 {
		t.Fatalf("L1 = %dB, want 16KB", cfg.Core.L1.SizeBytes)
	}
	if cfg.MC.L2.SizeBytes != 128<<10 {
		t.Fatalf("L2 = %dB, want 128KB", cfg.MC.L2.SizeBytes)
	}

	// GDDR5 timing: tRP=12 tRC=40 tRRD=6 tRAS=28 tRCD=12 tCL=12.
	d := cfg.MC.DRAM
	if d.TRP != 12 || d.TRC != 40 || d.TRRD != 6 || d.TRAS != 28 || d.TRCD != 12 || d.TCL != 12 {
		t.Fatalf("GDDR5 timing %+v does not match Table I", d)
	}

	// NoC: 4 VCs x 1 packet, 128-bit links, 36-flit NI queue.
	if cfg.VCs != 4 {
		t.Fatalf("VCs = %d, want 4", cfg.VCs)
	}
	if cfg.ReqLinkBits != 128 || cfg.RepLinkBits != 128 {
		t.Fatalf("link width %d/%d, want 128", cfg.ReqLinkBits, cfg.RepLinkBits)
	}
	longPkt := noc.PacketSize(noc.ReadReply, cfg.RepLinkBits, cfg.DataBytes)
	if longPkt != 9 {
		t.Fatalf("long packet = %d flits, want 9 (1 header + 8 data)", longPkt)
	}
	nocCfg, err := noc.Config{
		Mesh: noc.Mesh{Width: 6, Height: 6}, VCs: cfg.VCs,
		LinkBits: cfg.RepLinkBits, DataBytes: cfg.DataBytes,
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	// Every VC buffers one long packet: LongPacketFlits is its depth.
	if depth := nocCfg.LongPacketFlits(); depth != longPkt {
		t.Fatalf("VC depth = %d flits, want 1 packet (%d)", depth, longPkt)
	}
	if nocCfg.NIQueueFlits != 36 {
		t.Fatalf("NI queue = %d flits, want 36", nocCfg.NIQueueFlits)
	}

	// ARI defaults: speedup 4, 2 priority levels, 1k starvation threshold.
	if cfg.InjSpeedup != 4 || cfg.PriorityLevels != 2 {
		t.Fatalf("ARI defaults S=%d L=%d, want 4/2", cfg.InjSpeedup, cfg.PriorityLevels)
	}
	if nocCfg.StarvationLimit != 1000 {
		t.Fatalf("starvation threshold = %d, want 1000", nocCfg.StarvationLimit)
	}

	// Diamond placement with 8 MCs on the mesh.
	mcs := noc.DiamondMCPlacement(noc.Mesh{Width: 6, Height: 6}, 8)
	if len(mcs) != 8 {
		t.Fatalf("diamond placement has %d MCs", len(mcs))
	}
}

// TestConfigCarriesNoSteppingKnob pins that the scan oracle, the deleted
// shard count and the deleted in-Step invariant gate are not configuration:
// nothing a JSON job body, a -config file or exp.JobKey (which hashes this
// encoding) carries can select a stepping schedule or a self-check.
func TestConfigCarriesNoSteppingKnob(t *testing.T) {
	enc, err := json.Marshal(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lower := strings.ToLower(string(enc)) // field names and json tags alike
	for _, key := range []string{"scan", "shards", "noccheckevery"} {
		if strings.Contains(lower, key) {
			t.Errorf("encoded Config contains a %q key: %s", key, enc)
		}
	}
}
