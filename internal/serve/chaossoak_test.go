// Chaos kill/restart soak: the kill/restart discipline of soak_test.go run
// under layered NoC faults — service stalls, flit-corruption bursts recovered
// by NACK retransmission, and permanent link deaths detoured by the
// fault-adaptive routing table. Byte-identical recovery must hold even when
// every simulation is itself recovering from injected faults: the journal, the
// fault schedule and the recovery protocol are all deterministic under
// (Config, seed).
package serve_test

import (
	"context"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/trace"
)

func TestChaosKillRestartSoakByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	goroutinesAtStart := runtime.NumGoroutine()
	base := core.DefaultConfig()
	base.Scheme = core.AdaARI
	base.WarmupCycles = 100
	base.MeasureCycles = 400
	// Every stall kind layered with corruption bursts and permanent link
	// deaths; CorruptProb > 0 auto-enables the recovery layer
	// (RetransBufPkts defaults to 8 in the simulator build).
	base.Fault = noc.ChaosFaults(7)

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
	// The chaos schedule must actually exercise the recovery protocol
	// somewhere in the suite, or the soak proves nothing.
	var recovered, faults uint64
	for _, w := range want {
		recovered += w.Recovery.RetransPackets
		faults += uint64(w.FaultEvents)
	}
	if recovered == 0 || faults == 0 {
		t.Fatalf("chaos schedule inert: %d faults, %d recovered packets", faults, recovered)
	}

	journalPath := filepath.Join(t.TempDir(), "chaos.jsonl")
	ss := startSoakServer(t, base, journalPath, "127.0.0.1:0")

	cli := &client.Client{
		BaseURL:     "http://" + ss.addr,
		MaxRetries:  500,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
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

	// Hard-kill mid-suite, then restart on the same address over the same
	// journal as a fresh process image.
	deadline := time.Now().Add(time.Minute)
	for ss.journal.Len() < 5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if ss.journal.Len() < 5 {
		t.Fatal("server never reached 5 journalled runs")
	}
	ss.kill(t)

	ss2 := startSoakServer(t, base, journalPath, ss.addr)
	completedAtKill := ss2.journal.Loaded()
	if completedAtKill < 5 {
		t.Fatalf("journal lost completed jobs across the kill: loaded %d, want >= 5", completedAtKill)
	}

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %s failed across the restart: %v", kernels[i].Name, err)
		}
	}

	// Byte-identical to the uninterrupted run: fault schedules, recovery
	// counters and dead-link detours included.
	for i := range kernels {
		if got, ref := jobJSON(t, resps[i].Result), jobJSON(t, want[i]); got != ref {
			t.Fatalf("job %s diverged after restart under chaos:\n got %s\nwant %s", kernels[i].Name, got, ref)
		}
	}
	// Zero completed jobs re-executed.
	if got, wantRuns := ss2.runner.Runs(), len(kernels)-completedAtKill; got != wantRuns {
		t.Fatalf("restarted server ran %d simulations, want %d (%d - %d journalled)",
			got, wantRuns, len(kernels), completedAtKill)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := ss2.srv.Shutdown(sctx); err != nil {
		t.Fatalf("final drain: %v", err)
	}
	ss2.httpSrv.Close()
	if err := ss2.journal.Close(); err != nil {
		t.Fatal(err)
	}
	goroutineBaseline(t, goroutinesAtStart)
}
