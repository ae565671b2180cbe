package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/core"
)

// journalVersion is hashed into JobKey, and entries of another version are
// ignored on load, so no stale journal, cache or peer answers a submission
// with an older model's result. Bump it when a Result field is added or
// redefined, or when a key could name a result the current model would not
// compute (the model changes what a Config computes). A deleted Result field
// needs no bump: json.Unmarshal skips the keys of an old line that Result no
// longer has. Nor does a removed Config field: the key hashes the Config's
// JSON, so every key changes and no old key can equal a new one.
const journalVersion = 5

// journalEntry is one completed run, one JSON object per line (JSONL).
type journalEntry struct {
	V      int         `json:"v"`
	Key    string      `json:"key"`
	Bench  string      `json:"bench"`
	Scheme string      `json:"scheme"`
	Result core.Result `json:"result"`
}

// Journal is an opt-in on-disk result journal for the Runner: every
// finished run is appended as one JSON line and flushed before the result
// is handed to the caller, so a killed sweep resumes from the journal
// without recomputing finished runs.
//
// Crash safety: entries are self-delimiting lines; a process killed
// mid-append leaves at most one truncated final line, which OpenJournal
// skips (everything before it is intact). Resumed runs are byte-identical
// to fresh ones because the serialised Result round-trips losslessly.
type Journal struct {
	path string

	appendMu sync.Mutex // serialises appends, held across write + fsync
	f        *os.File   // guarded by appendMu

	// mu guards entries and is never held across I/O: with the journal as
	// the Runner's one store, a lookup must not wait out another run's fsync.
	mu      sync.Mutex
	entries map[string]core.Result
	loaded  int
}

// OpenJournal opens (or creates) the journal at path and loads every intact
// entry. A torn final line — the signature of a process killed mid-append —
// is physically truncated away, so the next append starts on a fresh line
// instead of gluing onto the partial record (which would corrupt the first
// entry written after a crash). A corrupt but newline-terminated line in the
// middle of the file only costs that one entry.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: open journal: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: read journal: %w", err)
	}
	entries, intact := scanJournal(raw)
	if intact < int64(len(raw)) {
		if err := f.Truncate(intact); err != nil {
			f.Close()
			return nil, fmt.Errorf("exp: truncate journal tail: %w", err)
		}
	}
	if _, err := f.Seek(intact, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: seek journal: %w", err)
	}
	return &Journal{path: path, f: f, entries: entries, loaded: len(entries)}, nil
}

// scanJournal parses a journal's bytes: the entries of every intact line of
// this journalVersion, and intact, the offset just past the last
// newline-terminated line. Anything after intact is a torn tail.
func scanJournal(raw []byte) (entries map[string]core.Result, intact int64) {
	entries = make(map[string]core.Result)
	for {
		i := bytes.IndexByte(raw[intact:], '\n')
		if i < 0 {
			return entries, intact
		}
		line := raw[intact : intact+int64(i)+1]
		intact += int64(len(line))
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.V != journalVersion || e.Key == "" {
			continue // foreign or corrupt line: recompute that run
		}
		entries[e.Key] = e.Result
	}
}

// Len returns the number of loaded + recorded entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Loaded returns how many entries the journal held when opened (i.e. how
// many runs a resumed sweep skips).
func (j *Journal) Loaded() int { return j.loaded }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.appendMu.Lock()
	defer j.appendMu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Get returns the journalled result for key, if present. It is the
// read side cluster peers hit while a job is completing locally: the
// in-memory index is published only after the record's line is fully
// written and fsync'd, so a concurrent Get observes either no entry or the
// complete, durable record — never a torn tail.
func (j *Journal) Get(key string) (core.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.entries[key]
	return r, ok
}

// record appends one finished run and syncs it to disk before returning, so
// a crash immediately after never loses it.
func (j *Journal) record(key string, res core.Result) error {
	// Encode outside the lock: marshalling a Result is the expensive part
	// of an append and needs no journal state, so concurrent Get readers
	// (peer fetches) are not held behind it.
	line, err := json.Marshal(journalEntry{
		V:      journalVersion,
		Key:    key,
		Bench:  res.Benchmark,
		Scheme: res.Scheme.String(),
		Result: res,
	})
	if err != nil {
		return fmt.Errorf("exp: encode journal entry: %w", err)
	}
	line = append(line, '\n')
	j.appendMu.Lock()
	defer j.appendMu.Unlock()
	if j.f == nil {
		return fmt.Errorf("exp: journal %s is closed", j.path)
	}
	if _, ok := j.Get(key); ok {
		return nil
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("exp: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("exp: sync journal: %w", err)
	}
	j.mu.Lock()
	j.entries[key] = res
	j.mu.Unlock()
	return nil
}

// JobKey returns the journal key for one (config, benchmark) run — the
// identity the serving layer uses to deduplicate idempotent job submissions.
func JobKey(cfg core.Config, bench string) string { return jobKey(cfg, bench) }

// jobKey derives the journal key for one (config, benchmark) run: a SHA-256
// over the canonical JSON of both, so any config change — scheme, horizons,
// seed — keys a distinct entry.
func jobKey(cfg core.Config, bench string) string {
	b, err := json.Marshal(struct {
		V     int
		Cfg   core.Config
		Bench string
	}{journalVersion, cfg, bench})
	if err != nil {
		// core.Config is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("exp: marshal job key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
