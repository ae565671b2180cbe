package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestJournalRecoversTornTail tears the last record at named crash points
// of a torn final append — nothing of it written, one byte, a cut inside its
// key, all but its newline, and the whole record — and asserts that (a) all
// complete records before it are recovered, (b) the torn tail is cut off so
// a subsequent append lands on a fresh line, and (c) the post-recovery
// append survives a further reopen (the regression: appending after a torn
// tail used to glue the new record onto the partial line, silently losing it
// on the next load). The on-disk layer only truncates to the intact length
// scanJournal returns, so the cut position matters to it only through that
// length; TestScanJournalEveryCut covers the scan at every byte.
func TestJournalRecoversTornTail(t *testing.T) {
	path, keys, raw := writeEntries(t, 3)
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3", len(lines))
	}
	prefix := lines[0] + lines[1]
	last := string(raw)[len(prefix):] // final record including its '\n'
	inKey := strings.Index(last, keys[2]) + len(keys[2])/2
	if inKey <= 1 || inKey >= len(last)-1 {
		t.Fatalf("key %s not inside the last record %q", keys[2], last)
	}

	for _, cut := range []int{0, 1, inKey, len(last) - 1, len(last)} {
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

// TestScanJournalEveryCut cuts a three-record journal at every byte, in
// memory: the scan must return exactly the records whose line is complete
// before the cut, with their results, and an intact length just past the
// last of them.
func TestScanJournalEveryCut(t *testing.T) {
	_, keys, raw := writeEntries(t, 3)
	var ends []int // offset just past each record's newline
	for i, b := range raw {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != len(keys) {
		t.Fatalf("journal has %d lines, want %d", len(ends), len(keys))
	}
	for cut := 0; cut <= len(raw); cut++ {
		entries, intact := scanJournal(raw[:cut])
		complete, wantIntact := 0, 0
		for complete < len(ends) && ends[complete] <= cut {
			wantIntact = ends[complete]
			complete++
		}
		if intact != int64(wantIntact) || len(entries) != complete {
			t.Fatalf("cut %d: %d entries intact to %d, want %d to %d", cut, len(entries), intact, complete, wantIntact)
		}
		for i, k := range keys[:complete] {
			if got, ok := entries[k]; !ok || got.IPC != float64(i)+0.5 {
				t.Fatalf("cut %d: record %s = %+v (present %v)", cut, k, got, ok)
			}
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

// TestJournalLoadsLinesWithDeletedFields pins the rule that deleting a
// Result field needs no journalVersion bump: testdata holds two version-5
// entries written before Result.ReplyInjPeakWin95, seven Activity fields,
// FaultEvents and Recovery were deleted (bfs on tinyRunner's horizons, under
// Ada-ARI on the mesh and under DA2Mesh+ARI). Each line's key is its job's
// JobKey today: deleting Config's fault keys moved every key, and only the
// keys were rewritten then. json.Unmarshal skips the keys Result no longer
// has, so each entry must load as its job's fresh Result. It fails if a
// count the old lines carry moves to another place in the JSON.
func TestJournalLoadsLinesWithDeletedFields(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "journal_v5_deleted_fields.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"ReplyInjPeakWin95":`, `"NoCCycles":`, `"BufferedFlits":`, `"FaultEvents":`, `"Recovery":`} {
		if bytes.Count(raw, []byte(key)) != 2 {
			t.Fatalf("the old journal does not carry %s on both lines", key)
		}
	}
	path := filepath.Join(t.TempDir(), "old.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Loaded() != 2 {
		t.Fatalf("loaded %d entries of the old journal, want 2", j.Loaded())
	}
	r := tinyRunner(t)
	for _, sc := range []core.Scheme{core.AdaARI, core.DA2MeshARI} {
		cfg, k := r.withScheme(sc), r.Benchmarks[0]
		got, ok := j.Get(jobKey(cfg, k.Name))
		if !ok {
			t.Fatalf("%s/%s: the old journal has no entry under the job's key", k.Name, sc)
		}
		want, err := r.Run(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: the old journal's Result differs from a fresh run:\n got %+v\nwant %+v", k.Name, sc, got, want)
		}
	}
}
