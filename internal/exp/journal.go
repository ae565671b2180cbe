package exp

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/core"
)

// journalVersion is bumped whenever the serialised Result or the key schema
// changes shape, or the model changes what a Config computes; entries from
// another version are ignored on load, and the version is hashed into
// JobKey, so a stale journal, cache or peer can never answer a submission
// with a result of the older model.
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
	j := &Journal{path: path, f: f, entries: make(map[string]core.Result)}
	// intact is the byte offset just past the last newline-terminated line;
	// anything after it is a torn tail to be cut off.
	var intact int64
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break // len(line) > 0 here means a torn, unterminated tail
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("exp: read journal: %w", err)
		}
		intact += int64(len(line))
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.V != journalVersion || e.Key == "" {
			continue // foreign or corrupt line: recompute that run
		}
		j.entries[e.Key] = e.Result
	}
	if err := f.Truncate(intact); err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: truncate journal tail: %w", err)
	}
	if _, err := f.Seek(intact, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: seek journal: %w", err)
	}
	j.loaded = len(j.entries)
	return j, nil
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
// seed, fault schedule — keys a distinct entry.
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
