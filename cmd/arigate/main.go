// Command arigate is the cluster front door: it routes job submissions to
// N ariserve replicas by consistent hash over their idempotency key
// (exp.JobKey), with health-checked failover, hedged requests, and load
// shedding (internal/cluster).
//
// Usage:
//
//	arigate -replicas http://a:8080,http://b:8080,http://c:8080
//	arigate -addr :9090 -replication 2 -hedge-after 250ms
//	arigate -probe-interval 500ms -breaker-threshold 3
//
// API:
//
//	POST /v1/jobs          route a submission to its owner replicas
//	GET  /v1/stats         routing/failover/hedge counters
//	GET  /healthz          gateway liveness
//	GET  /readyz           200 while >= 1 replica is routable, else 503
//	GET  /metrics          Prometheus text: per-outcome route counters, latency
//	                       histograms, per-replica health
//	GET  /metrics/cluster  federated rollup of every live replica's /metrics
//	GET  /debug/spans      recorded gateway spans (?trace= filters)
//	GET  /debug/trace      merged gateway+replica Chrome trace for one trace ID
//
// The gateway is stateless: routing is a pure function of the replica set,
// so any number of arigate instances compute identical placement, and a
// restarted gateway needs no warm-up beyond its first health probes. Jobs
// whose owners are all down are shed with 429 + Retry-After; the retrying
// client (internal/serve/client) rides through both the shed and the
// failover.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sigs); err != nil {
		fmt.Fprintln(os.Stderr, "arigate:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it routes until a signal arrives on sigs
// (or the listener fails). The bound address is announced on stderr so
// tests can serve on :0.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("arigate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:9090", "listen address")
		replicas  = fs.String("replicas", "", "comma-separated ariserve base URLs (required)")
		repl      = fs.Int("replication", 2, "owners per job key (failover depth)")
		hedge     = fs.Duration("hedge-after", 250*time.Millisecond, "race a secondary owner after this long (negative disables)")
		probe     = fs.Duration("probe-interval", 500*time.Millisecond, "readyz health-probe cadence")
		threshold = fs.Int("breaker-threshold", 3, "consecutive failures opening a replica's circuit")
		cycles    = fs.Int64("cycles", 10000, "default measured cycles (must match the replicas' base)")
		warmup    = fs.Int64("warmup", 3000, "default warmup cycles (must match the replicas' base)")
		traceSamp = fs.Int("trace-sample", 0, "start a distributed trace on every Nth routed job (0 disables; incoming X-Ari-Trace is always honoured)")
		traceCap  = fs.Int("trace-cap", 0, "span-recorder ring capacity (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var urls []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			urls = append(urls, strings.TrimRight(r, "/"))
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("no replicas: pass -replicas http://host:port[,...]")
	}

	base := core.DefaultConfig()
	base.MeasureCycles = *cycles
	base.WarmupCycles = *warmup

	g, err := cluster.New(cluster.Config{
		Base:             base,
		Replicas:         urls,
		Replication:      *repl,
		HedgeAfter:       *hedge,
		ProbeInterval:    *probe,
		BreakerThreshold: *threshold,
		TraceSample:      *traceSamp,
		TraceCap:         *traceCap,
	})
	if err != nil {
		return err
	}
	g.Start()
	defer g.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "arigate: listening on %s (routing to %d replicas)\n", ln.Addr(), len(urls))

	hs := &http.Server{Handler: g}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigs:
		fmt.Fprintf(stderr, "arigate: %v: shutting down\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	st := g.Stats()
	fmt.Fprintf(stdout, "arigate: stopped; %d routed, %d failovers, %d hedges, %d shed\n",
		st.Requests, st.Failovers, st.Hedges, st.Shed)
	return nil
}
