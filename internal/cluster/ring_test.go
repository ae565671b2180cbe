package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real JobKeys: hex-ish, high entropy via hash64 input.
		keys[i] = fmt.Sprintf("job-%06d", i)
	}
	return keys
}

func TestRingDeterministicPlacement(t *testing.T) {
	reps := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1, err := NewRing(reps, 64)
	if err != nil {
		t.Fatal(err)
	}
	// A "restarted" gateway handed the same replica set in a different order
	// must compute identical routing.
	r2, err := NewRing([]string{"http://c:3", "http://a:1", "http://b:2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(2000) {
		o1 := r1.Owners(k, 2)
		o2 := r2.Owners(k, 2)
		if len(o1) != 2 || len(o2) != 2 {
			t.Fatalf("key %s: owners %v / %v", k, o1, o2)
		}
		if o1[0] != o2[0] || o1[1] != o2[1] {
			t.Fatalf("key %s: placement differs across construction order: %v vs %v", k, o1, o2)
		}
		if o1[0] == o1[1] {
			t.Fatalf("key %s: duplicate owner %v", k, o1)
		}
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty replica set accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Fatal("duplicate replica accepted")
	}
}

func TestRingMinimalMovementOnLeave(t *testing.T) {
	reps := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	full, err := NewRing(reps, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	removed := "http://c:3"
	survivors := []string{"http://a:1", "http://b:2", "http://d:4"}
	smaller, err := NewRing(survivors, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}

	keys := testKeys(10000)
	moved := 0
	for _, k := range keys {
		before := full.Owners(k, 1)[0]
		after := smaller.Owners(k, 1)[0]
		if before != removed {
			// The strict consistent-hashing property: keys not owned by the
			// departed replica must not move between survivors.
			if after != before {
				t.Fatalf("key %s moved %s -> %s though %s left", k, before, after, removed)
			}
			continue
		}
		moved++
	}
	// The departed primary owned ~1/N of the keys; allow 2/N slack.
	if limit := 2 * len(keys) / len(reps); moved > limit {
		t.Fatalf("%d/%d keys moved on leave, want <= %d (~1/N)", moved, len(keys), limit)
	}
	if moved == 0 {
		t.Fatal("no keys owned by the departed replica? ring is degenerate")
	}
}

func TestRingUniformLoad(t *testing.T) {
	reps := []string{"http://a:1", "http://b:2", "http://c:3"}
	r, err := NewRing(reps, DefaultVnodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int, len(reps))
	keys := testKeys(10000)
	for _, k := range keys {
		counts[r.Owners(k, 1)[0]]++
	}
	mean := float64(len(keys)) / float64(len(reps))
	for rep, n := range counts {
		dev := (float64(n) - mean) / mean
		if dev < -0.10 || dev > 0.10 {
			t.Fatalf("replica %s holds %d keys, %.1f%% off the mean %.0f (want within 10%%)",
				rep, n, 100*dev, mean)
		}
	}
	if len(counts) != len(reps) {
		t.Fatalf("only %d/%d replicas received keys", len(counts), len(reps))
	}
}

func TestOwnersClamp(t *testing.T) {
	r, err := NewRing([]string{"http://a:1", "http://b:2"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Owners("k", 5); len(got) != 2 {
		t.Fatalf("owners(5) over 2 replicas = %v", got)
	}
	if got := r.Owners("k", 0); len(got) != 0 {
		t.Fatalf("owners(0) = %v", got)
	}
}

// BenchmarkGateRoute is the gateway's per-submission routing hot path:
// hash the key, find its owners. The ledger's row is cluster.stage_route_us.
func BenchmarkGateRoute(b *testing.B) {
	reps := make([]string, 8)
	for i := range reps {
		reps[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	r, err := NewRing(reps, DefaultVnodes)
	if err != nil {
		b.Fatal(err)
	}
	keys := testKeys(1024)
	buf := make([]string, 0, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.OwnersAppend(buf[:0], keys[i&1023], 2)
	}
	if len(buf) != 2 {
		b.Fatal("routing returned no owners")
	}
}
