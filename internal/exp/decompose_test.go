package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens (decompose_golden.csv, figures_tiny.md) from the current simulator")

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
	if *update {
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

// lifecycleDigest is the SHA-256 of every traced reply-fabric lifecycle of
// TestDecomposeLifecycleDigest's runs, recorded when each fabric still
// reported a lifecycle as per-stage events.
const lifecycleDigest = "5bde5e5711b3181ee7bfb4e99c9e0812e226b285163cb3f0f63a2a16fed71cbb"

// TestDecomposeLifecycleDigest pins each traced packet of the decomposition's
// four schemes (bfs, seed 1, every packet sampled) in delivery
// order: ID, NI enqueue, injection, arrival at the ejector and ejection. The
// figure rounds these to means; the digest holds every cycle exactly.
func TestDecomposeLifecycleDigest(t *testing.T) {
	r := decomposeRunner()
	kernel, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	colls := make([]*obs.Collector, len(decomposeSchemes))
	jobs := make([]Job, len(decomposeSchemes))
	for i, sch := range decomposeSchemes {
		jobs[i] = Job{Cfg: r.withScheme(sch), Kernel: kernel, Observe: func(sim *core.Simulator) {
			colls[i] = obs.NewCollector("rep")
			sim.ReplyNet().SetTracer(colls[i], 1)
		}}
	}
	if _, err := r.RunAll(jobs); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	packets := 0
	for i, sch := range decomposeSchemes {
		fmt.Fprintf(h, "%v\n", sch)
		for _, p := range colls[i].Done() {
			fmt.Fprintf(h, "%d %d %d %d %d\n", p.ID, p.Enqueued, p.Injected, p.Arrived, p.Ejected)
		}
		packets += len(colls[i].Done())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != lifecycleDigest {
		t.Fatalf("lifecycle digest over %d packets = %s, want %s", packets, got, lifecycleDigest)
	}
}
