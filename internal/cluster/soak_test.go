// Cluster chaos soak: three journalled ariserve replicas behind an arigate
// front door, with replicas hard-killed and restarted mid-flight. The cluster
// must deliver every job byte-identical to an uninterrupted run, lose
// nothing, and never re-run a completed job: a resubmission sweep after the
// soak must be answered entirely from journals (locally or via peer fetch)
// without a single new simulation.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/trace"
)

// soakReplica is one replica incarnation: runner + journal + listener,
// rebootable on the same address over the same journal.
type soakReplica struct {
	srv     *serve.Server
	httpSrv *http.Server
	journal *exp.Journal
	runner  *exp.Runner
	addr    string
	url     string
}

// startSoakReplica boots one replica on addr (the inherited address after a
// restart), peered with peers.
func startSoakReplica(t *testing.T, base core.Config, journalPath, addr string, peers []string) *soakReplica {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return startSoakReplicaOn(t, base, journalPath, ln, peers)
}

// startSoakReplicaOn boots one replica on a pre-bound listener — the first
// incarnations bind all listeners up front so every replica knows its
// peers' final addresses before any server starts.
func startSoakReplicaOn(t *testing.T, base core.Config, journalPath string, ln net.Listener, peers []string) *soakReplica {
	t.Helper()
	j, err := exp.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	r := &exp.Runner{Base: base, Journal: j}
	s, err := serve.New(serve.Config{
		Runner: r, MaxInFlight: 2, QueueDepth: 4,
		Peers: peers, PeerTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	a := ln.Addr().String()
	return &soakReplica{srv: s, httpSrv: hs, journal: j, runner: r, addr: a, url: "http://" + a}
}

// kill simulates SIGKILL: abort in-flight runs, tear the listener down with
// no drain, release the journal. Only the fsync'd journal survives.
func (sr *soakReplica) kill(t *testing.T) {
	t.Helper()
	sr.srv.Abort()
	sr.httpSrv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sr.srv.Wait(ctx); err != nil {
		t.Fatalf("aborted jobs did not unwind: %v", err)
	}
	if err := sr.journal.Close(); err != nil {
		t.Fatal(err)
	}
}

func (sr *soakReplica) stop(t *testing.T) {
	t.Helper()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sr.srv.Shutdown(sctx); err != nil {
		t.Fatalf("replica %s drain: %v", sr.url, err)
	}
	sr.httpSrv.Close()
	if err := sr.journal.Close(); err != nil {
		t.Fatal(err)
	}
}

// journalled counts completed jobs across the live replicas.
func journalled(reps []*soakReplica) int {
	n := 0
	for _, r := range reps {
		n += r.journal.Len()
	}
	return n
}

func TestClusterChaosSoakByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos soak is a long test")
	}
	goroutinesAtStart := runtime.NumGoroutine()

	base := core.DefaultConfig()
	base.Scheme = core.AdaARI
	base.WarmupCycles = 100
	base.MeasureCycles = 400

	kernels := trace.Suite()[:14]

	// Reference: the uninterrupted run, straight on a Runner.
	var jobs []exp.Job
	for _, k := range kernels {
		jobs = append(jobs, exp.Job{Cfg: base, Kernel: k})
	}
	ref := &exp.Runner{Base: base}
	want, err := ref.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Three replicas, each peered with the other two. Peer lists need the
	// final addresses, so bind every listener before starting any server.
	dir := t.TempDir()
	paths := []string{
		filepath.Join(dir, "r0.jsonl"),
		filepath.Join(dir, "r1.jsonl"),
		filepath.Join(dir, "r2.jsonl"),
	}
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peersOf := func(i int) []string {
		var ps []string
		for k, u := range urls {
			if k != i {
				ps = append(ps, u)
			}
		}
		return ps
	}
	reps := make([]*soakReplica, 3)
	for i := range reps {
		reps[i] = startSoakReplicaOn(t, base, paths[i], lns[i], peersOf(i))
	}

	// The front door: replication 2, aggressive probing, hedging on.
	g, err := New(Config{
		Base:             base,
		Replicas:         urls,
		Replication:      2,
		HedgeAfter:       150 * time.Millisecond,
		ProbeInterval:    25 * time.Millisecond,
		BreakerThreshold: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Close()
	gateLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := &http.Server{Handler: g}
	go gateSrv.Serve(gateLn)
	defer gateSrv.Close()
	gateURL := "http://" + gateLn.Addr().String()

	// One concurrent retrying client per kernel, submitting through the
	// gate; retries ride through sheds, kills, failovers, and restarts.
	cli := &client.Client{
		BaseURL:     gateURL,
		MaxRetries:  500,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(kernels))
	resps := make([]serve.JobResponse, len(kernels))
	for i, k := range kernels {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			resps[i], errs[i] = cli.Submit(ctx, serve.JobRequest{Bench: name})
		}(i, k.Name)
	}

	// Rolling kills: hard-kill replica 0 once the cluster has journalled a
	// few runs, restart it, then do the same to replica 1. Each restart is
	// a fresh process image warming from its crash-only journal.
	waitJournalled := func(n int) {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for journalled(reps) < n && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if got := journalled(reps); got < n {
			t.Fatalf("cluster never reached %d journalled runs (at %d)", n, got)
		}
	}
	for round, victim := range []int{0, 1} {
		waitJournalled(3 + 4*round)
		reps[victim].kill(t)
		// Leave the hole open long enough for the breaker/probes to see it
		// and for routing to fail over.
		time.Sleep(150 * time.Millisecond)
		reps[victim] = startSoakReplica(t, base, paths[victim], reps[victim].addr, peersOf(victim))
	}

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %s lost in the soak: %v", kernels[i].Name, err)
		}
	}

	// Byte-identical to the uninterrupted run, no matter which replica(s)
	// computed it.
	for i := range kernels {
		gotB, _ := json.Marshal(resps[i].Result)
		wantB, _ := json.Marshal(want[i])
		if !bytes.Equal(gotB, wantB) {
			t.Fatalf("job %s diverged through the cluster:\n got %s\nwant %s", kernels[i].Name, gotB, wantB)
		}
	}

	// The kill windows must actually have exercised the failover path.
	st := g.Stats()
	if st.Failovers == 0 && st.Hedges == 0 {
		t.Fatalf("soak never failed over or hedged: stats %+v", st)
	}
	t.Logf("gate: %d requests, %d failovers, %d hedges (%d wins), %d shed",
		st.Requests, st.Failovers, st.Hedges, st.HedgeWins, st.Shed)

	// Zero re-runs of completed jobs: resubmit the whole suite through the
	// gate. Every answer must come from a journal — the routed owner's own,
	// or a peer's via result fetch — with not one new simulation anywhere.
	runsBefore := make([]int, len(reps))
	for i, r := range reps {
		runsBefore[i] = r.runner.Runs()
	}
	peerServed := 0
	for i, k := range kernels {
		resp, err := cli.Submit(ctx, serve.JobRequest{Bench: k.Name})
		if err != nil {
			t.Fatalf("resubmit %s: %v", k.Name, err)
		}
		if !resp.Cached {
			t.Fatalf("resubmitted %s was not served from a journal: %+v", k.Name, resp)
		}
		if resp.Peer != "" {
			peerServed++
		}
		gotB, _ := json.Marshal(resp.Result)
		wantB, _ := json.Marshal(want[i])
		if !bytes.Equal(gotB, wantB) {
			t.Fatalf("resubmitted %s diverged:\n got %s\nwant %s", k.Name, gotB, wantB)
		}
	}
	for i, r := range reps {
		if got := r.runner.Runs(); got != runsBefore[i] {
			t.Fatalf("replica %d re-ran %d completed jobs on resubmission", i, got-runsBefore[i])
		}
	}
	t.Logf("resubmission sweep: %d/%d answered via peer fetch", peerServed, len(kernels))

	// A job journalled on exactly one replica is served by every other
	// replica through peer fetch — the targeted cross-replica assertion.
	crossChecked := false
	for i, k := range kernels {
		key := exp.JobKey(base, k.Name)
		holders, absent := []int{}, []int{}
		for ri, r := range reps {
			if _, ok := r.journal.Get(key); ok {
				holders = append(holders, ri)
			} else {
				absent = append(absent, ri)
			}
		}
		if len(holders) == 0 {
			t.Fatalf("job %s journalled nowhere after the soak", k.Name)
		}
		if len(absent) == 0 {
			continue
		}
		// Submit straight to a replica that has never seen this job.
		target := reps[absent[0]]
		body, _ := json.Marshal(serve.JobRequest{Bench: k.Name})
		resp, err := http.Post(target.url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out serve.JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !out.Cached || out.Peer == "" {
			t.Fatalf("replica %d did not peer-fetch %s: status %d, %+v", absent[0], k.Name, resp.StatusCode, out)
		}
		gotB, _ := json.Marshal(out.Result)
		wantB, _ := json.Marshal(want[i])
		if !bytes.Equal(gotB, wantB) {
			t.Fatalf("peer-fetched %s diverged:\n got %s\nwant %s", k.Name, gotB, wantB)
		}
		crossChecked = true
		break
	}
	if !crossChecked {
		t.Log("every job journalled on every replica; cross-replica fetch exercised by the resubmission sweep instead")
	}

	// Clean teardown; nothing may leak.
	g.Close()
	gateSrv.Close()
	for _, r := range reps {
		r.stop(t)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesAtStart+3 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutinesAtStart+3 {
		t.Fatalf("goroutines leaked: %d at start, %d after the soak", goroutinesAtStart, got)
	}
}
