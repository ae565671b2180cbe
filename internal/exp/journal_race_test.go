package exp

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestJournalGetWhileAppend exercises the read-while-append contract the
// cluster's peer result-fetch depends on: while one goroutine is completing
// jobs locally (record), concurrent readers (Get) must observe, for every
// key, either no entry at all or the complete record — never a torn or
// partially published one. Run under -race this also proves the index
// publication is properly synchronised.
func TestJournalGetWhileAppend(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "race.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const keys = 64
	const readers = 8
	want := make([]core.Result, keys)
	for i := range want {
		// Distinctive multi-field payloads: a torn record would decouple
		// the fields from each other.
		want[i] = fakeResult(fmt.Sprintf("bench-%03d", i), float64(i)+0.125)
	}
	keyOf := func(i int) string { return fmt.Sprintf("key-%03d", i) }

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			seen := make([]bool, keys)
			for done := 0; done < keys; {
				for i := 0; i < keys; i++ {
					res, ok := j.Get(keyOf(i))
					if !ok {
						continue // absent: the record has not been published yet
					}
					if res.Benchmark != want[i].Benchmark || res.IPC != want[i].IPC ||
						res.Instructions != want[i].Instructions {
						errs <- fmt.Errorf("key %d: torn read: got %+v want %+v", i, res, want[i])
						return
					}
					if !seen[i] {
						seen[i] = true
						done++
					}
				}
			}
		}()
	}

	close(start)
	for i := 0; i < keys; i++ {
		if err := j.record(keyOf(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if j.Len() != keys {
		t.Fatalf("journal holds %d entries, want %d", j.Len(), keys)
	}
}

// TestRunnerLookupKeyAndAdopt covers the peer-serving seam: LookupKey finds
// results by their JobKey via cache and journal, and Adopt stores a
// peer-computed result durably without counting a run.
func TestRunnerLookupKeyAndAdopt(t *testing.T) {
	dir := t.TempDir()
	jA, err := OpenJournal(filepath.Join(dir, "a.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jA.Close()

	cfg := core.DefaultConfig()
	res := fakeResult("bfs", 1.5)
	key := JobKey(cfg, "bfs")

	// Replica A: the job lands in its journal (simulating a finished run).
	if err := jA.record(key, res); err != nil {
		t.Fatal(err)
	}
	rA := &Runner{Base: cfg, Journal: jA}
	if got, ok := rA.LookupKey(key); !ok || got.IPC != res.IPC {
		t.Fatalf("LookupKey via journal = %+v, %v", got, ok)
	}
	if _, ok := rA.LookupKey("no-such-key"); ok {
		t.Fatal("LookupKey invented a result")
	}

	// Replica B adopts A's result: served locally afterwards, journalled
	// durably, and never counted as a run.
	jB, err := OpenJournal(filepath.Join(dir, "b.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	rB := &Runner{Base: cfg, Journal: jB}
	if err := rB.Adopt(cfg, "bfs", res); err != nil {
		t.Fatal(err)
	}
	if rB.Runs() != 0 {
		t.Fatalf("Adopt counted %d runs, want 0", rB.Runs())
	}
	if got, ok := rB.LookupKey(JobKey(cfg, "bfs")); !ok || got.IPC != res.IPC {
		t.Fatalf("LookupKey after Adopt = %+v, %v", got, ok)
	}
	if err := jB.Close(); err != nil {
		t.Fatal(err)
	}

	// The adopted result survives a restart through B's own journal.
	jB2, err := OpenJournal(filepath.Join(dir, "b.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jB2.Close()
	if got, ok := jB2.Get(key); !ok || got.IPC != res.IPC {
		t.Fatalf("adopted result lost across restart: %+v, %v", got, ok)
	}
}
