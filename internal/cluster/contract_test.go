package cluster

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

var updateContract = flag.Bool("update", false, "rewrite testdata/served_contract.golden from the current handlers")

// contractCluster is two peered real replicas behind a gateway, hedging off,
// packet linking off — the serving stack exactly as benchmark/servephase.go
// builds it, so what this file pins is what the ledger reads.
type contractCluster struct {
	gateway  *httptest.Server
	replicas []*httptest.Server
	g        *Gateway
	base     core.Config
}

func startContractCluster(t *testing.T) *contractCluster {
	t.Helper()
	base := core.DefaultConfig()
	base.WarmupCycles = 200
	base.MeasureCycles = 600
	k, err := trace.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	c := &contractCluster{base: base}
	// Listeners first: each replica must know its peer's URL before it exists.
	urls := make([]string, 2)
	for i := range urls {
		ts := httptest.NewUnstartedServer(nil)
		t.Cleanup(ts.Close)
		c.replicas = append(c.replicas, ts)
		urls[i] = "http://" + ts.Listener.Addr().String()
	}
	for i, ts := range c.replicas {
		s, err := serve.New(serve.Config{
			Runner:       &exp.Runner{Base: base, Benchmarks: []trace.Kernel{k}},
			Peers:        []string{urls[1-i]},
			Process:      "ariserve-" + string(rune('a'+i)),
			TracePackets: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts.Config.Handler = s
		ts.Start()
	}
	c.g = gateFor(t, Config{Base: base, Replicas: urls, HedgeAfter: -1})
	c.gateway = httptest.NewServer(c.g)
	t.Cleanup(c.gateway.Close)
	return c
}

// submit posts body to url/v1/jobs, optionally under a trace context, and
// returns the 200 answer's body.
func (c *contractCluster) submit(t *testing.T, url, body, traceCtx string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceCtx != "" {
		req.Header.Set(obs.TraceHeader, traceCtx)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/v1/jobs %s: %d %s", url, body, resp.StatusCode, raw)
	}
	return raw
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return raw
}

// traceSpans collects one trace's spans from the gateway and every replica
// over /debug/spans, the way benchmark/servephase.go:stageTimes does.
func (c *contractCluster) traceSpans(t *testing.T, traceID string) []obs.Span {
	t.Helper()
	var all []obs.Span
	for _, ts := range append([]*httptest.Server{c.gateway}, c.replicas...) {
		var got []obs.Span
		if err := json.Unmarshal(httpGet(t, ts.URL+"/debug/spans?trace="+traceID), &got); err != nil {
			t.Fatal(err)
		}
		all = append(all, got...)
	}
	return all
}

func spanNames(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	sort.Strings(out)
	return out
}

var (
	jsonStringValue = regexp.MustCompile(`"(?:[^"\\]|\\.)*"([,}\]])`)
	jsonNumberValue = regexp.MustCompile(`([:\[,])-?[0-9][0-9.eE+-]*`)
)

// jsonShape blanks every string and number value of a JSON document, keeping
// keys, their order, booleans, nulls and nesting: what an omitempty tag, a
// renamed field or a reordered struct would change, and a timing would not.
func jsonShape(raw []byte) string {
	s := jsonStringValue.ReplaceAllString(strings.TrimSpace(string(raw)), `""$1`)
	return jsonNumberValue.ReplaceAllString(s, `${1}0`)
}

// metricFamilies lists the sorted "# TYPE" lines of an exposition body.
func metricFamilies(body []byte) []string {
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			out = append(out, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	sort.Strings(out)
	return out
}

// TestServedContract records what the serving stack answers for one fixed
// scenario — a traced cold job and a traced duplicate through the gateway,
// an estimate, and a peer-fetched duplicate on the non-owner — as the span
// names the ledger's stage rows are computed from (asserted here) and as the
// metric families and JSON shapes of every answer (golden file, recorded on
// the commit before the handlers became a stage pipeline).
func TestServedContract(t *testing.T) {
	c := startContractCluster(t)
	const job = `{"bench":"bfs"}`
	key := jobKeyFor(t, c.base, serve.JobRequest{Bench: "bfs"})
	owner := c.g.Ring().Owners(key, 1)[0]
	var ownerURL, otherURL string
	for _, ts := range c.replicas {
		if "http://"+ts.Listener.Addr().String() == owner {
			ownerURL = ts.URL
		} else {
			otherURL = ts.URL
		}
	}

	cold := obs.TraceContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	dup := obs.TraceContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	coldBody := c.submit(t, c.gateway.URL, job, cold.String())
	dupBody := c.submit(t, c.gateway.URL, job, dup.String())
	estBody := c.submit(t, c.gateway.URL, `{"bench":"bfs","scheme":"Ada-ARI","estimate":true}`, "")
	peerBody := c.submit(t, otherURL, job, "")

	// (b) The span names benchmark/servephase.go:stageTimes keys its six
	// ledger rows on, exactly.
	coldSpans := c.traceSpans(t, cold.Trace)
	wantCold := []string{"gateway.attempt", "gateway.route", "serve.admission", "serve.job",
		"serve.peer_fetch", "serve.queue_wait", "serve.run"}
	if got := spanNames(coldSpans); strings.Join(got, " ") != strings.Join(wantCold, " ") {
		t.Errorf("cold job spans = %v, want %v", got, wantCold)
	}
	dupSpans := c.traceSpans(t, dup.Trace)
	wantDup := []string{"gateway.attempt", "gateway.route", "serve.job", "serve.journal_hit"}
	if got := spanNames(dupSpans); strings.Join(got, " ") != strings.Join(wantDup, " ") {
		t.Errorf("duplicate spans = %v, want %v", got, wantDup)
	}
	var jobSpan, hit obs.Span
	for _, sp := range dupSpans {
		switch sp.Name {
		case "serve.job":
			jobSpan = sp
		case "serve.journal_hit":
			hit = sp
		}
	}
	if jobSpan.Attrs["outcome"] != "cached" {
		t.Errorf("duplicate's serve.job outcome = %q, want cached", jobSpan.Attrs["outcome"])
	}
	if hit.DurUS != 0 || hit.Parent != jobSpan.ID || jobSpan.ID == "" {
		t.Errorf("serve.journal_hit = %+v, want an instant child of serve.job %s", hit, jobSpan.ID)
	}
	for _, sp := range coldSpans {
		if sp.Name == "serve.job" && sp.Attrs["outcome"] != "ok" {
			t.Errorf("cold serve.job outcome = %q, want ok", sp.Attrs["outcome"])
		}
		if sp.Name == "gateway.route" && (sp.Attrs["outcome"] != "ok" || sp.Parent != cold.Span) {
			t.Errorf("cold gateway.route = %+v, want outcome ok under %s", sp, cold.Span)
		}
	}

	// (a) + (c): families and shapes against the golden.
	var b strings.Builder
	section := func(title string, lines ...string) {
		b.WriteString("== " + title + "\n")
		for _, l := range lines {
			b.WriteString(l + "\n")
		}
	}
	section("ariserve /metrics families", metricFamilies(httpGet(t, ownerURL+"/metrics"))...)
	section("arigate /metrics families", metricFamilies(httpGet(t, c.gateway.URL+"/metrics"))...)
	section("ariserve /v1/stats", jsonShape(httpGet(t, ownerURL+"/v1/stats")))
	section("arigate /v1/stats", jsonShape(httpGet(t, c.gateway.URL+"/v1/stats")))
	section("JobResponse cold", jsonShape(coldBody))
	section("JobResponse cached", jsonShape(dupBody))
	section("JobResponse estimated", jsonShape(estBody))
	section("JobResponse peer", jsonShape(peerBody))

	const golden = "testdata/served_contract.golden"
	if *updateContract {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("served contract moved (re-record with -update only on purpose):\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has, clipped to a readable width.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]--
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]++
	}
	var out []string
	for l, n := range count {
		if len(l) > 160 {
			l = l[:160] + "…"
		}
		switch {
		case n > 0:
			out = append(out, "+ "+l)
		case n < 0:
			out = append(out, "- "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestEveryCounterHasASeries locks the class of drift that hid
// Stats.Estimated from /metrics: every int64 counter field of serve.Stats and
// cluster.Stats, named by its json tag, must have a <prefix>_<tag>_total
// series in the corresponding /metrics body — and the federated
// /metrics/cluster must relay the replicas' series unchanged.
func TestEveryCounterHasASeries(t *testing.T) {
	c := startContractCluster(t)
	c.submit(t, c.gateway.URL, `{"bench":"bfs","estimate":true}`, "")
	for _, tc := range []struct {
		stats any
		url   string
	}{
		{serve.Stats{}, c.replicas[0].URL + "/metrics"},
		{Stats{}, c.gateway.URL + "/metrics"},
	} {
		body := string(httpGet(t, tc.url))
		typ := reflect.TypeOf(tc.stats)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() != reflect.Int64 {
				continue
			}
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			series := regexp.MustCompile(`(?m)^[a-z_]+_` + tag + `_total `)
			if !series.MatchString(body) {
				t.Errorf("%s.%s (json %q) has no *_%s_total series on %s", typ, f.Name, tag, tag, tc.url)
			}
		}
	}
	rollup := string(httpGet(t, c.gateway.URL+"/metrics/cluster"))
	for _, ts := range c.replicas {
		want := `ari_jobs_estimated_total{replica="http://` + ts.Listener.Addr().String() + `"}`
		if !strings.Contains(rollup, want) {
			t.Errorf("/metrics/cluster does not relay %s", want)
		}
	}
}
