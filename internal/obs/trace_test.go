package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/noc"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	if !tc.Valid() {
		t.Fatalf("fresh context invalid: %+v", tc)
	}
	got, ok := ParseTraceContext(tc.String())
	if !ok || got != tc {
		t.Fatalf("round trip: %+v ok=%v, want %+v", got, ok, tc)
	}
	if a, b := NewTraceID(), NewTraceID(); a == b {
		t.Fatalf("trace IDs collide: %s", a)
	}
}

func TestParseTraceContextRejectsGarbage(t *testing.T) {
	for _, h := range []string{
		"", "abc", strings.Repeat("z", 33),
		"0123456789abcdef:0123456789abcdef",  // wrong separator
		"0123456789ABCDEF-0123456789abcdef",  // upper hex
		"0123456789abcde-0123456789abcdef",   // short trace
		"0123456789abcdef-0123456789abcdeff", // long span
		"0123456789abcdef-0123456789abcdeg",  // non-hex
	} {
		if _, ok := ParseTraceContext(h); ok {
			t.Errorf("ParseTraceContext(%q) accepted", h)
		}
	}
}

func TestSpanRecorderRingAndLatest(t *testing.T) {
	r := NewSpanRecorder(3)
	for i, tr := range []string{"a", "b", "c", "d"} {
		s := Span{Trace: strings.Repeat(tr, 16), ID: NewSpanID(), Name: "n"}
		if i%2 == 1 {
			s.Parent = NewSpanID()
		}
		r.Record(s)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want cap 3", r.Len())
	}
	// "a" was evicted; latest root is "c" (the "d" span has a parent).
	if got := r.Spans(strings.Repeat("a", 16)); len(got) != 0 {
		t.Fatalf("evicted trace still present: %v", got)
	}
	if got := r.LatestTrace(); got != strings.Repeat("c", 16) {
		t.Fatalf("latest root = %q", got)
	}
	if all := r.Spans(""); len(all) != 3 {
		t.Fatalf("all spans = %d", len(all))
	}
}

func TestPacketSpansAnchorAndLimit(t *testing.T) {
	c := NewCollector("rep")
	feedLifecycle(c, 1, noc.ReadReply, 0, 3, []HopEvent{
		{Node: 1, Stage: noc.TraceSwitch, Cycle: 7},
	}, 12)
	feedLifecycle(c, 2, noc.WriteReply, 4, 5, nil, 20)

	spans := PacketSpans(c, "t", "parent", "replica", 1_000_000, 1)
	if len(spans) != 1 {
		t.Fatalf("limit ignored: %d spans", len(spans))
	}
	sp := spans[0]
	if sp.Trace != "t" || sp.Parent != "parent" || sp.Process != "replica" {
		t.Fatalf("identity: %+v", sp)
	}
	// feedLifecycle enqueues packet 1 at cycle 0 and ejects at 12.
	if sp.StartUS != 1_000_000 || sp.DurUS != 12 {
		t.Fatalf("anchor: start=%d dur=%d", sp.StartUS, sp.DurUS)
	}
	if sp.Attrs["src"] != "0" || sp.Attrs["dst"] != "5" || sp.Attrs["net"] != "rep" {
		t.Fatalf("attrs: %v", sp.Attrs)
	}
	if PacketSpans(nil, "t", "p", "x", 0, 0) != nil {
		t.Fatal("nil collector must yield nil")
	}
}

// TestWriteSpanTraceMatchesSchema locks the span exporter to the same
// trace_event schema fixture the packet exporter honours: the merged
// cluster trace must load in chrome://tracing and Perfetto.
func TestWriteSpanTraceMatchesSchema(t *testing.T) {
	schema := loadChromeSchema(t)

	trace := NewTraceID()
	root := StartSpan(trace, "", "gateway.route", "arigate")
	root.DurUS = 5000
	att := StartSpan(trace, root.ID, "gateway.attempt", "arigate")
	att.SetAttr("replica", "http://a:1")
	att.DurUS = 4000
	job := StartSpan(trace, att.ID, "serve.job", "ariserve :8080")
	job.DurUS = 3000
	pkt := Span{Trace: trace, ID: NewSpanID(), Parent: job.ID, Name: "pkt ReadReply",
		Process: "ariserve :8080", StartUS: job.StartUS + 10, DurUS: 40,
		Attrs: map[string]string{"net": "rep"}}

	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, []Span{root, att, job, pkt}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not a JSON object: %v", err)
	}
	for _, k := range schema.TopLevelRequired {
		if _, ok := doc[k]; !ok {
			t.Errorf("top-level key %q missing", k)
		}
	}
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		t.Fatal(err)
	}
	var xCount, mCount int
	processes := map[string]bool{}
	for i, ev := range events {
		for _, k := range schema.EventRequired {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event %d missing %q", i, k)
			}
		}
		var ph string
		json.Unmarshal(ev["ph"], &ph)
		if !contains(schema.AllowedPhases, ph) {
			t.Fatalf("event %d phase %q not allowed", i, ph)
		}
		switch ph {
		case "X":
			xCount++
			var ts, dur float64
			json.Unmarshal(ev["ts"], &ts)
			json.Unmarshal(ev["dur"], &dur)
			if ts < 0 || dur < 0 {
				t.Fatalf("event %d negative ts/dur", i)
			}
			var args map[string]any
			json.Unmarshal(ev["args"], &args)
			if args["trace"] != trace {
				t.Fatalf("event %d trace arg = %v", i, args["trace"])
			}
		case "M":
			mCount++
			var name string
			json.Unmarshal(ev["name"], &name)
			if name == "process_name" {
				var args map[string]any
				json.Unmarshal(ev["args"], &args)
				processes[args["name"].(string)] = true
			}
		}
	}
	if xCount != 4 {
		t.Fatalf("X events = %d, want 4", xCount)
	}
	if !processes["arigate"] || !processes["ariserve :8080"] {
		t.Fatalf("process rows = %v", processes)
	}
	_ = mCount
}
