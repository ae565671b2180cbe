package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/bfs_ada_ari.golden")

// short is the horizon every simulating test runs at.
var short = []string{"-bench", "bfs", "-warmup", "500", "-cycles", "2000"}

// arisim runs the command with args and returns its stdout.
func arisim(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	return out.String()
}

// dumpConfig is the configuration arisim -dumpconfig prints for args.
func dumpConfig(t *testing.T, args ...string) core.Config {
	t.Helper()
	var cfg core.Config
	if err := json.Unmarshal([]byte(arisim(t, append(args, "-dumpconfig")...)), &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestGolden pins the printed statistics of one short Ada-ARI run; -update
// rewrites the golden.
func TestGolden(t *testing.T) {
	got := arisim(t, append(short, "-scheme", "Ada-ARI")...)
	path := filepath.Join("testdata", "bfs_ada_ari.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from %s (rerun with -update if the change is intended):\n%s", path, got)
	}
}

// TestDumpConfigRoundTrip: a dumped configuration loaded back with -config
// dumps to the same bytes.
func TestDumpConfigRoundTrip(t *testing.T) {
	first := arisim(t, "-scheme", "XY-ARI", "-mesh", "8", "-seed", "3", "-dumpconfig")
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(first), 0o644); err != nil {
		t.Fatal(err)
	}
	if again := arisim(t, "-config", path, "-dumpconfig"); again != first {
		t.Errorf("round trip changed the config:\n%s\nvs\n%s", first, again)
	}
}

// TestAxisFlags: every exp.Axes row is a flag that edits the configuration
// exactly as the row's point does, after -config; an unset one leaves the
// file's value.
func TestAxisFlags(t *testing.T) {
	for _, ax := range exp.Axes {
		v := ax.Values[len(ax.Values)-1]
		want := core.DefaultConfig()
		want.Scheme = core.AdaARI
		ax.Point(v).Edit(&want)
		if got := dumpConfig(t, "-"+ax.Name, strconv.Itoa(v)); got != want {
			t.Errorf("-%s %d: config differs from the axis point's", ax.Name, v)
		}
	}

	path := filepath.Join(t.TempDir(), "cfg.json")
	file := arisim(t, "-priolevels", "3", "-mcs", "12", "-dumpconfig")
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := dumpConfig(t, "-config", path, "-priolevels", "5")
	if cfg.PriorityLevels != 5 || cfg.NumMC != 12 {
		t.Errorf("-config with -priolevels 5: PriorityLevels %d (want 5), NumMC %d (want the file's 12)",
			cfg.PriorityLevels, cfg.NumMC)
	}
}

// TestVCsCapSpeedup: -vcs caps the configured speedup at the VC count (eq. 2).
func TestVCsCapSpeedup(t *testing.T) {
	if cfg := dumpConfig(t, "-vcs", "2"); cfg.VCs != 2 || cfg.InjSpeedup != 2 {
		t.Errorf("-vcs 2: VCs %d, InjSpeedup %d, want 2 and 2", cfg.VCs, cfg.InjSpeedup)
	}
}

func TestEstimate(t *testing.T) {
	out := arisim(t, "-bench", "bfs", "-scheme", "Ada-ARI", "-estimate")
	for _, want := range []string{"analytical estimate", "IPC", "reply injection"} {
		if !strings.Contains(out, want) {
			t.Errorf("estimate output lacks %q:\n%s", want, out)
		}
	}
}

// TestRecordReplay: replaying a recorded trace reproduces the recording run.
func TestRecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bfs.trace")
	recorded := arisim(t, append(short, "-record", path)...)
	if replayed := arisim(t, append(short, "-replay", path)...); replayed != recorded {
		t.Errorf("replay diverged from the recording run:\n%s\nvs\n%s", recorded, replayed)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	type badRun struct {
		args []string
		name string // the removed flag or field the error must name, if any
	}
	bad := []badRun{
		{args: []string{"-mesh", "6x6"}},
		{args: []string{"-mcs", "24"}},
		{args: []string{"-bench", "nosuchbench"}},
		{args: []string{"-scheme", "nosuchscheme"}},
		// The fault-injection flags are gone, even with a value they took.
		{args: []string{"-corrupt-prob", "0.05"}, name: "corrupt-prob"},
		{args: []string{"-link-death", "0.001"}, name: "link-death"},
	}
	// A -config file naming a field Config does not have — one it never
	// had, then the seven it dropped, each in the object it lived in and
	// with a value it took — is refused rather than run without it; so is an
	// L2 line half the L1 line a packet carries.
	dir := t.TempDir()
	for i, edit := range []struct {
		name string
		set  func(cfg map[string]any)
	}{
		{"", func(cfg map[string]any) { cfg["EdgeMCPlacement"] = true }},
		{"", func(cfg map[string]any) { cfg["DataBytes"] = 128 }},
		{"", func(cfg map[string]any) { cfg["MultiPortPorts"] = 2 }},
		{"", func(cfg map[string]any) { cfg["EjectRate"] = 1 }},
		{"", func(cfg map[string]any) { cfg["Core"].(map[string]any)["WarpsPerCore"] = 48 }},
		{"Fault", func(cfg map[string]any) { cfg["Fault"] = map[string]any{"CorruptProb": 0.05} }},
		{"RetransBufPkts", func(cfg map[string]any) { cfg["RetransBufPkts"] = 8 }},
		{"", func(cfg map[string]any) { cfg["MC"].(map[string]any)["L2"].(map[string]any)["LineBytes"] = 64 }},
	} {
		var cfg map[string]any
		if err := json.Unmarshal([]byte(arisim(t, "-dumpconfig")), &cfg); err != nil {
			t.Fatal(err)
		}
		edit.set(cfg)
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "bad"+strconv.Itoa(i)+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		bad = append(bad, badRun{args: []string{"-config", path}, name: edit.name})
	}
	for _, bad := range bad {
		var out, errb bytes.Buffer
		err := run(append(short, bad.args...), &out, &errb)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", bad.args)
		} else if !strings.Contains(err.Error(), bad.name) {
			t.Errorf("run(%v): error %q does not name %s", bad.args, err, bad.name)
		}
	}
}

// TestTraceOutMatchesSchema: -trace-out writes the sampled packets of both
// fabrics as one trace_event document that satisfies the exporter's schema
// fixture, one complete event per packet the decomposition table counts,
// each carrying its queue/network/eject split.
func TestTraceOutMatchesSchema(t *testing.T) {
	rawSchema, err := os.ReadFile("../../internal/obs/testdata/chrome_trace_schema.json")
	if err != nil {
		t.Fatal(err)
	}
	var schema struct {
		TopLevelRequired        []string            `json:"top_level_required"`
		AllowedDisplayTimeUnits []string            `json:"allowed_display_time_units"`
		EventRequired           []string            `json:"event_required"`
		AllowedPhases           []string            `json:"allowed_phases"`
		PhaseRequired           map[string][]string `json:"phase_required"`
		NumericFields           []string            `json:"numeric_fields"`
	}
	if err := json.Unmarshal(rawSchema, &schema); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	out := arisim(t, append(short, "-trace-sample", "16", "-trace-out", path)...)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not a JSON object: %v", err)
	}
	for _, k := range schema.TopLevelRequired {
		if _, ok := doc[k]; !ok {
			t.Errorf("top-level key %q missing", k)
		}
	}
	var unit string
	json.Unmarshal(doc["displayTimeUnit"], &unit)
	if !slices.Contains(schema.AllowedDisplayTimeUnits, unit) {
		t.Errorf("displayTimeUnit = %q, allowed %v", unit, schema.AllowedDisplayTimeUnits)
	}
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		t.Fatal(err)
	}
	perNet := map[string]int{}
	for i, ev := range events {
		var ph string
		json.Unmarshal(ev["ph"], &ph)
		if !slices.Contains(schema.AllowedPhases, ph) {
			t.Fatalf("event %d has phase %q, allowed %v", i, ph, schema.AllowedPhases)
		}
		for _, k := range append(schema.EventRequired, schema.PhaseRequired[ph]...) {
			if _, ok := ev[k]; !ok {
				t.Fatalf("%q event %d missing %q", ph, i, k)
			}
		}
		num := map[string]int{}
		for _, k := range schema.NumericFields {
			var v int
			if err := json.Unmarshal(ev[k], &v); ev[k] != nil && (err != nil || v < 0) {
				t.Fatalf("event %d field %q is not a count: %s", i, k, ev[k])
			}
			num[k] = v
		}
		if ph != "X" {
			continue
		}
		var args map[string]string
		if err := json.Unmarshal(ev["args"], &args); err != nil {
			t.Fatalf("event %d args: %v", i, err)
		}
		dur, split := num["dur"], 0
		for _, k := range []string{"queue", "net_cy", "eject"} {
			n, err := strconv.Atoi(args[k])
			if err != nil || n < 0 {
				t.Fatalf("event %d attr %s = %q", i, k, args[k])
			}
			split += n
		}
		if split != dur {
			t.Fatalf("event %d: queue+network+eject = %d, dur %d", i, split, dur)
		}
		perNet[args["net"]]++
	}
	// The decomposition table on stdout counts the same sampled packets.
	for _, net := range []string{"req", "rep"} {
		var want int
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == net {
				want, _ = strconv.Atoi(f[1])
			}
		}
		if want == 0 || perNet[net] != want {
			t.Errorf("%s: %d packet events, decomposition counts %d", net, perNet[net], want)
		}
	}
}
