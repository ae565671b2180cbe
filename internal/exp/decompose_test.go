package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var updateDecompose = flag.Bool("update", false, "rewrite testdata/decompose_golden.csv from the current simulator")

// decomposeRunner is the short-horizon runner behind the golden file.
func decomposeRunner() *Runner {
	r := NewRunner()
	r.Base.WarmupCycles = 300
	r.Base.MeasureCycles = 700
	return r
}

// TestDecomposeGolden pins the full decomposition pipeline — trace hooks,
// collector assembly, latency attribution, table rendering — against a
// golden CSV on one small benchmark. The simulator is deterministic, so any
// byte change here means either an intentional model change (rerun with
// -update) or an observability bug.
func TestDecomposeGolden(t *testing.T) {
	fig, err := Decompose(decomposeRunner(), "bfs", 4)
	if err != nil {
		t.Fatal(err)
	}
	got := fig.Table.CSV()

	golden := filepath.Join("testdata", "decompose_golden.csv")
	if *updateDecompose {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("decomposition diverged from golden:\n got:\n%s\nwant:\n%s", got, want)
	}

	// Structural checks independent of the exact numbers: both schemes
	// present, queue shares recorded, and the paper's direction holds —
	// ARI removes most of the baseline's injection queueing.
	base, ok1 := fig.Summary["queue_share_"+core.XYBaseline.String()]
	ari, ok2 := fig.Summary["queue_share_"+core.AdaARI.String()]
	if !ok1 || !ok2 {
		t.Fatalf("summary missing queue shares: %v", fig.Summary)
	}
	if base <= ari {
		t.Errorf("baseline queue share %.3f <= ARI %.3f; expected ARI to shrink queueing", base, ari)
	}
}

// TestDecomposeDA2MeshQueueShare: the DA2mesh overlay is traced like the
// mesh, and its reply latency shows the same injection queueing that ARI
// removes (Fig 16's mechanism): a non-zero queue share that ARI shrinks.
func TestDecomposeDA2MeshQueueShare(t *testing.T) {
	fig, err := Decompose(decomposeRunner(), "bfs", 4)
	if err != nil {
		t.Fatal(err)
	}
	base := fig.Summary["queue_share_"+core.DA2MeshBase.String()]
	ari := fig.Summary["queue_share_"+core.DA2MeshARI.String()]
	if base <= 0 {
		t.Fatalf("DA2Mesh queue share %.3f, want > 0 (summary %v)", base, fig.Summary)
	}
	if ari >= base {
		t.Errorf("DA2Mesh+ARI queue share %.3f >= DA2Mesh %.3f; expected ARI to shrink queueing", ari, base)
	}
}

func TestDecomposeUnknownBench(t *testing.T) {
	if _, err := Decompose(decomposeRunner(), "no-such-bench", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
