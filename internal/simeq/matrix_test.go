package simeq

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestMatrixDigests is the cross-commit byte-identity net: the 90-point
// validation matrix (every suite kernel under XY-Baseline, Ada-Baseline and
// Ada-ARI) plus the ideal-reply and DA2mesh fabrics on the golden kernels,
// each at ShortConfig, pinned by the SHA-256 of its encoded Result in
// testdata/matrix_digests.json. A refactor that claims "same bytes" leaves
// that file alone; an intentional model change re-records it with -update.
func TestMatrixDigests(t *testing.T) {
	got := make(map[string]string)
	record := func(k trace.Kernel, label string, cfg core.Config) {
		sum := sha256.Sum256(RunEncoded(t, cfg, k))
		got[k.Name+"/"+label] = hex.EncodeToString(sum[:])
	}
	for _, k := range trace.Suite() {
		for _, s := range []core.Scheme{core.XYBaseline, core.AdaBaseline, core.AdaARI} {
			cfg := ShortConfig()
			cfg.Scheme = s
			record(k, s.String(), cfg)
		}
	}
	for _, name := range goldenBenchmarks {
		k, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ideal := ShortConfig()
		ideal.Scheme, ideal.IdealReply = core.XYBaseline, true
		record(k, "ideal", ideal)
		overlay := ShortConfig()
		overlay.Scheme = core.DA2MeshBase
		record(k, "da2mesh", overlay)
	}

	path := filepath.Join("testdata", "matrix_digests.json")
	if *update {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d points)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read digest table (record with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("matrix has %d points, %s has %d", len(got), path, len(want))
	}
	for point, digest := range got {
		if want[point] != digest {
			t.Errorf("%s: result drifted from %s (intentional model changes need -update)", point, path)
		}
	}
}
