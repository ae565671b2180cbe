package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// fakeResult returns a distinguishable Result for journal tests that never
// touch the simulator.
func fakeResult(bench string, ipc float64) core.Result {
	return core.Result{Benchmark: bench, Scheme: core.AdaARI, IPC: ipc, Instructions: uint64(ipc * 1000)}
}

// writeEntries builds a journal with n synthetic entries and returns its
// path, the keys in write order, and the file bytes.
func writeEntries(t *testing.T, n int) (string, []string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if err := j.record(key, fakeResult(fmt.Sprintf("bench%d", i), float64(i)+0.5)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, keys, raw
}

// TestJournalRecoversTornTail truncates the journal at every byte offset of
// the last record — every possible crash point of a torn final append — and
// asserts that (a) all complete records before it are recovered, (b) the
// torn tail is cut off so a subsequent append lands on a fresh line, and
// (c) the post-recovery append survives a further reopen (the regression:
// appending after a torn tail used to glue the new record onto the partial
// line, silently losing it on the next load).
func TestJournalRecoversTornTail(t *testing.T) {
	path, keys, raw := writeEntries(t, 3)
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3", len(lines))
	}
	prefix := lines[0] + lines[1]
	last := string(raw)[len(prefix):] // final record including its '\n'

	for cut := 0; cut <= len(last); cut++ {
		torn := prefix + last[:cut]
		if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantLoaded := 2
		if cut == len(last) { // nothing torn: full final record intact
			wantLoaded = 3
		}
		if j.Loaded() != wantLoaded {
			t.Fatalf("cut %d: loaded %d entries, want %d", cut, j.Loaded(), wantLoaded)
		}
		for _, k := range keys[:wantLoaded] {
			if _, ok := j.Get(k); !ok {
				t.Fatalf("cut %d: complete record %s not recovered", cut, k)
			}
		}
		// The append after recovery must itself survive a reopen.
		if err := j.record("key-after-crash", fakeResult("resumed", 9.25)); err != nil {
			t.Fatalf("cut %d: record after recovery: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if j2.Loaded() != wantLoaded+1 {
			t.Fatalf("cut %d: reopen loaded %d entries, want %d", cut, j2.Loaded(), wantLoaded+1)
		}
		if got, ok := j2.Get("key-after-crash"); !ok || got.IPC != 9.25 {
			t.Fatalf("cut %d: post-recovery append lost on reopen (ok=%v, got=%+v)", cut, ok, got)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalTruncatesTornTailOnDisk asserts the torn bytes are physically
// removed at open, not just skipped in memory.
func TestJournalTruncatesTornTailOnDisk(t *testing.T) {
	path, _, raw := writeEntries(t, 2)
	torn := append(append([]byte{}, raw...), []byte(`{"v":1,"key":"half`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(raw) {
		t.Fatalf("torn tail not truncated:\n got %q\nwant %q", got, raw)
	}
}

// TestJobKeyDistinguishesConfigs pins the serving-layer identity: any config
// or benchmark difference keys a distinct job, identical inputs collide.
func TestJobKeyDistinguishesConfigs(t *testing.T) {
	cfg := core.DefaultConfig()
	if JobKey(cfg, "bfs") != JobKey(cfg, "bfs") {
		t.Fatal("identical jobs produced different keys")
	}
	if JobKey(cfg, "bfs") == JobKey(cfg, "srad") {
		t.Fatal("different benchmarks share a key")
	}
	cfg2 := cfg
	cfg2.Seed++
	if JobKey(cfg, "bfs") == JobKey(cfg2, "bfs") {
		t.Fatal("different configs share a key")
	}
}

// TestJournalKeepsOlderVersionLines is the version-bump regression: a
// journal written by the previous schema version opens cleanly, serves none
// of its entries (their keys hashed a different Config shape), keeps their
// bytes on disk — skipped, never truncated — and appends current-version
// lines after them.
func TestJournalKeepsOlderVersionLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var old []byte
	// v2 had the stepping knobs in Config; v3 results come from cores that
	// dropped the memory instructions they could not issue; v4 keys hashed
	// a Config that still carried NoCCheckEvery.
	for i, v := range []int{2, 3, 4} {
		line, err := json.Marshal(journalEntry{
			V:      v,
			Key:    fmt.Sprintf("old-%d", i),
			Bench:  "bfs",
			Scheme: core.AdaARI.String(),
			Result: fakeResult("bfs", float64(i)+0.5),
		})
		if err != nil {
			t.Fatal(err)
		}
		old = append(append(old, line...), '\n')
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open journal holding older-version lines: %v", err)
	}
	if j.Loaded() != 0 {
		t.Fatalf("loaded %d older-version entries, want 0", j.Loaded())
	}
	if _, ok := j.Get("old-0"); ok {
		t.Fatal("an older-version entry was served")
	}
	if err := j.record("new", fakeResult("srad", 2.5)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, old) {
		t.Fatalf("older-version lines were not kept byte for byte:\n got %q\nwant prefix %q", raw, old)
	}
	if want := fmt.Sprintf(`{"v":%d,"key":"new",`, journalVersion); !strings.HasPrefix(string(raw[len(old):]), want) {
		t.Fatalf("appended line %q does not start with %q", raw[len(old):], want)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Get("new"); !ok || j2.Loaded() != 1 {
		t.Fatalf("reopen loaded %d entries (new present: %v), want exactly the appended one", j2.Loaded(), ok)
	}
}
