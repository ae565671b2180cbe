package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped distributed tracing across the serving stack (DESIGN.md
// §15): spans from arigate, every ariserve replica and a traced run's
// sampled NoC packets share one trace ID, propagated via X-Ari-Trace, and
// merge into one Chrome trace_event timeline.

// TraceHeader carries the trace context between processes as
// "<trace id>-<span id>", both fixed-width lowercase hex.
const TraceHeader = "X-Ari-Trace"

// Span is one timed operation of a distributed trace. Times are wall-clock
// microseconds (UnixMicro), so spans recorded by different processes on one
// machine share a timeline.
type Span struct {
	// Trace groups the spans of one request; ID identifies this span;
	// Parent is the span this one nests under ("" for the root).
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// Name is the operation ("gateway.route", "serve.run", "pkt ReadReply").
	Name string `json:"name"`
	// Process names the emitting process ("arigate", "ariserve :8080");
	// the Chrome export renders one process row per distinct value.
	Process string `json:"process"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// Attrs carries small string annotations (replica URL, outcome, packet
	// source/destination).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// TraceContext is the propagated (trace, span) pair: the span is the
// sender's — the receiver parents its own spans under it.
type TraceContext struct {
	Trace string
	Span  string
}

const traceIDLen, spanIDLen = 16, 16 // hex chars (8 random bytes each)

// NewTraceID returns a fresh random trace ID.
func NewTraceID() string { return randHex() }

// NewSpanID returns a fresh random span ID.
func NewSpanID() string { return randHex() }

func randHex() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a broken
		// entropy source degrades tracing, never the simulation.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// String renders the context in X-Ari-Trace form.
func (tc TraceContext) String() string { return tc.Trace + "-" + tc.Span }

// Valid reports whether both halves are present.
func (tc TraceContext) Valid() bool { return tc.Trace != "" && tc.Span != "" }

// ParseTraceContext parses an X-Ari-Trace header value. Malformed values
// (wrong widths, non-hex) report ok=false: a garbage header disables
// tracing for the request instead of corrupting the recorder.
func ParseTraceContext(h string) (tc TraceContext, ok bool) {
	if len(h) != traceIDLen+1+spanIDLen || h[traceIDLen] != '-' {
		return TraceContext{}, false
	}
	trace, span := h[:traceIDLen], h[traceIDLen+1:]
	if !isLowerHex(trace) || !isLowerHex(span) {
		return TraceContext{}, false
	}
	return TraceContext{Trace: trace, Span: span}, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// StartSpan begins a span now under the given context (parent may be "").
// Finish it with End, then hand it to a SpanRecorder.
func StartSpan(trace, parent, name, process string) Span {
	return Span{
		Trace:   trace,
		ID:      NewSpanID(),
		Parent:  parent,
		Name:    name,
		Process: process,
		StartUS: time.Now().UnixMicro(),
	}
}

// End stamps the span's duration.
func (s *Span) End() { s.DurUS = time.Now().UnixMicro() - s.StartUS }

// Context is the span's propagated form: what a callee parents under.
func (s *Span) Context() TraceContext { return TraceContext{Trace: s.Trace, Span: s.ID} }

// SetAttr annotates the span.
func (s *Span) SetAttr(k, v string) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
}

// SpanRecorder is a bounded in-memory store of completed spans, safe for
// concurrent use. When full it drops the oldest spans: recent traces are
// the debuggable ones.
type SpanRecorder struct {
	mu    sync.Mutex
	cap   int
	next  int // ring write position once full
	full  bool
	spans []Span

	unsampled atomic.Int64 // requests that arrived without a context (StartScope)
}

// DefaultSpanCap bounds the recorder when the configured capacity is 0.
const DefaultSpanCap = 4096

// NewSpanRecorder returns a recorder keeping up to capacity spans
// (DefaultSpanCap when <= 0).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanRecorder{cap: capacity}
}

// Record stores one completed span.
func (r *SpanRecorder) Record(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		r.spans = append(r.spans, s)
		if len(r.spans) == r.cap {
			r.full = true
		}
		return
	}
	r.spans[r.next] = s
	r.next = (r.next + 1) % r.cap
}

// Len returns the number of stored spans.
func (r *SpanRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns the stored spans of one trace in recording order (all spans
// when trace is empty).
func (r *SpanRecorder) Spans(trace string) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for i := 0; i < len(r.spans); i++ {
		s := r.spans[(r.next+i)%len(r.spans)]
		if trace == "" || s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// LatestTrace returns the trace ID of the most recently recorded root span
// (a span with no parent), or "" when none is stored. It is the default
// target of the /debug/trace endpoints.
func (r *SpanRecorder) LatestTrace() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		s := r.spans[(r.next+i)%len(r.spans)]
		if s.Parent == "" {
			return s.Trace
		}
	}
	return ""
}

// ServeHTTP is /debug/spans on both binaries: the recorded spans as JSON
// (?trace=<id> filters to one trace), which the gateway's /debug/trace merges.
func (r *SpanRecorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.Spans(req.URL.Query().Get("trace")))
}

// Scope carries one traced request through its handler: a root span plus
// the child spans and instant events recorded under it. A nil *Scope
// (untraced request) is valid and makes every method a no-op, so handlers
// call it unconditionally.
type Scope struct {
	rec  *SpanRecorder
	root Span
}

// StartScope decides one request's tracing fate: continue a valid incoming
// X-Ari-Trace context (the sender sampled), else mint a trace for 1 in
// sample context-less requests (0 = never). The root's context is echoed on
// the response so callers — curl included — learn the trace ID to pull.
func (r *SpanRecorder) StartScope(w http.ResponseWriter, req *http.Request, name, process string, sample int) *Scope {
	tc, ok := ParseTraceContext(req.Header.Get(TraceHeader))
	if !ok {
		if sample <= 0 || (r.unsampled.Add(1)-1)%int64(sample) != 0 {
			return nil
		}
		tc = TraceContext{Trace: NewTraceID()}
	}
	sc := &Scope{rec: r, root: StartSpan(tc.Trace, tc.Span, name, process)}
	w.Header().Set(TraceHeader, sc.root.Context().String())
	return sc
}

// SetAttr annotates the root span.
func (sc *Scope) SetAttr(k, v string) {
	if sc != nil {
		sc.root.SetAttr(k, v)
	}
}

// Child starts a span nested under the root; close it with EndChild. The
// zero Span returned when untraced is safe to pass back.
func (sc *Scope) Child(name string) Span {
	if sc == nil {
		return Span{}
	}
	return StartSpan(sc.root.Trace, sc.root.ID, name, sc.root.Process)
}

// EndChild stamps and records a child span with optional attr pairs. It is
// safe to call from a goroutine other than the handler's.
func (sc *Scope) EndChild(sp Span, attrs ...string) {
	if sc == nil || sp.Trace == "" {
		return
	}
	sp.End()
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.SetAttr(attrs[i], attrs[i+1])
	}
	sc.rec.Record(sp)
}

// Event records an instantaneous child span: the trace shows where an
// answer came from even when getting it took no time worth timing.
func (sc *Scope) Event(name string) {
	if sc != nil {
		sc.rec.Record(sc.Child(name))
	}
}

// Finish closes and records the root span with its outcome; call it once.
func (sc *Scope) Finish(outcome string) {
	if sc != nil {
		sc.EndChild(sc.root, "outcome", outcome)
	}
}

// PacketSpans converts the completed packet lifecycles of a Collector into
// spans of the given trace, parented under the simulation-run span and
// anchored at its wall-clock start: packet cycles map 1:1 to microseconds
// (the Chrome exporter's existing convention), so the NoC timeline nests
// inside the run's slice of the distributed trace. At most limit packets
// are converted (0 = all) — sampling already bounds the collector, the
// limit bounds the recorder.
func PacketSpans(c *Collector, trace, parent, process string, anchorUS int64, limit int) []Span {
	if c == nil {
		return nil
	}
	done := c.Done()
	if limit > 0 && len(done) > limit {
		done = done[:limit]
	}
	out := make([]Span, 0, len(done))
	for _, p := range done {
		sp := Span{
			Trace:   trace,
			ID:      NewSpanID(),
			Parent:  parent,
			Name:    "pkt " + p.Type.String(),
			Process: process,
			StartUS: anchorUS + p.Enqueued,
			DurUS:   p.Ejected - p.Enqueued,
		}
		last := p.lastSwitch()
		sp.Attrs = map[string]string{
			"net":    c.Label,
			"src":    strconv.Itoa(p.Src),
			"dst":    strconv.Itoa(p.Dst),
			"queue":  strconv.FormatInt(p.Injected-p.Enqueued, 10),
			"net_cy": strconv.FormatInt(last-p.Injected, 10),
			"eject":  strconv.FormatInt(p.Ejected-last, 10),
		}
		out = append(out, sp)
	}
	return out
}

// WriteSpanTrace exports spans as a Chrome trace_event JSON document (the
// same Object Format WriteChromeTrace emits, validated against the same
// schema fixture): one process row per distinct Span.Process, one thread
// row per span name within it, timestamps normalised to the earliest span.
// Spans from arigate, every ariserve replica, and the NoC packet lifecycles
// of a traced run therefore render as a single merged timeline.
func WriteSpanTrace(w io.Writer, spans []Span) error {
	trace := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	// Deterministic rows: processes sorted by name, threads by first use
	// after sorting spans by (process, start, id).
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Process != sorted[j].Process {
			return sorted[i].Process < sorted[j].Process
		}
		if sorted[i].StartUS != sorted[j].StartUS {
			return sorted[i].StartUS < sorted[j].StartUS
		}
		return sorted[i].ID < sorted[j].ID
	})
	var origin int64
	for i, s := range sorted {
		if i == 0 || s.StartUS < origin {
			origin = s.StartUS
		}
	}

	pids := make(map[string]int)
	type tidKey struct {
		pid  int
		name string
	}
	tids := make(map[tidKey]int)
	nextTID := make(map[int]int)
	for _, s := range sorted {
		pid, ok := pids[s.Process]
		if !ok {
			pid = len(pids)
			pids[s.Process] = pid
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": s.Process},
			})
		}
		// Group packet spans onto one row per fabric instead of one per
		// packet type so a traced run reads as a compact band.
		row := s.Name
		if strings.HasPrefix(s.Name, "pkt ") {
			row = "noc packets"
			if net := s.Attrs["net"]; net != "" {
				row = "noc packets (" + net + ")"
			}
		}
		tk := tidKey{pid, row}
		tid, ok := tids[tk]
		if !ok {
			tid = nextTID[pid]
			nextTID[pid] = tid + 1
			tids[tk] = tid
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": row},
			})
		}
		args := map[string]any{"trace": s.Trace, "span": s.ID}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		dur := s.DurUS
		if dur < 0 {
			dur = 0
		}
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name:  s.Name,
			Cat:   s.Process,
			Phase: "X",
			TS:    s.StartUS - origin,
			Dur:   dur,
			PID:   pid,
			TID:   tid,
			Args:  args,
		})
	}
	return json.NewEncoder(w).Encode(trace)
}
