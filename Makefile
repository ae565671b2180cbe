.PHONY: check test bench-ledger-check goldens figures-check fuzz soak loadtest obs profile

# check is the full gate: build everything, vet, gofmt, and run all tests
# with the race detector (covers the equivalence, golden, property, and race
# suites). Performance is not gated here: the ledger is benchmark/ (see
# benchmark/README.md; `bash benchmark/run.sh -compare A B` is the one
# comparison tool), and the Benchmark* functions are plain `go test -bench`.
# Each internal benchmark still runs once, so one that a state change breaks
# (a b.Fatal, a panic) fails here rather than in the next profiling session.
check: bench-ledger-check
	go build ./...
	go vet ./...
	test -z "$$(gofmt -l .)"
	go test -race ./...
	go test -run '^$$' -bench . -benchtime 1x ./internal/...

# bench-ledger-check compiles and tests benchmark/, which is its own module
# (replace repro => ../) and so is invisible to the root go build/vet/test:
# a renamed accessor there would otherwise only break the benchmark driver.
bench-ledger-check:
	cd benchmark && go vet ./... && go test ./...

test:
	go test ./...

# goldens regenerates every committed file the model feeds, from the tree as
# it stands: the simeq goldens (golden.json, matrix_digests.json), the
# decomposition golden, the tiny-runner figure report (figures_tiny.md),
# arisim's stdout golden (cmd/arisim/testdata/bfs_ada_ari.golden), and the
# figures — the Markdown report experiments_full.txt and every results_csv/
# file from one `ariexp -fig all` pass (a CSV no registry figure writes any
# more is removed). The estimator's error is the analytic figure's four
# summaries, so it moves here with the figures. A change that
# moves the model on purpose runs it in the same commit, never separately;
# EXPERIMENTS.md is then updated from experiments_full.txt by hand.
goldens:
	go test ./internal/simeq -run 'GoldenDeterminism|MatrixDigests' -count=1 -update
	go test ./internal/exp -run 'Decompose|FiguresGenerate' -count=1 -update
	go test ./cmd/arisim -count=1 -update
	rm -f results_csv/fig_*.csv
	go run ./cmd/ariexp -fig all -csv results_csv | tee experiments_full.txt

# figures-check proves the committed figures are what the tree produces:
# it regenerates the whole evaluation (`ariexp -fig all -csv`, ~1 min on
# two CPUs; the report's last line counts the runs) into a temp dir and
# fails unless every CSV equals results_csv/ (diff -r) and the report equals
# experiments_full.txt. ariexp writes its wall time to stderr, so the report
# is diffed whole.
figures-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/ariexp -fig all -csv "$$tmp/csv" > "$$tmp/report.txt" && \
	diff -r results_csv "$$tmp/csv" && diff experiments_full.txt "$$tmp/report.txt"

# soak runs every robustness soak under -race:
#   - fault injection (DESIGN.md §8): the noc fault suites (seeded fault
#     schedules across schemes with invariants checked throughout, the
#     schedule golden, deterministic replay under faults), the watchdog
#     deadlock/starvation detectors, and simulator recycling (a simulator
#     rebuilt on a closed one's system, faults on, equals a fresh one). The
#     recycling tests also run 20 times without -race: their byte checks
#     (the closed system was not reused) are skipped under it, and they
#     depend on which P the test goroutine runs on;
#   - layered fault recovery (DESIGN.md §13): every stall kind combined with
#     flit-corruption bursts and permanent link deaths, checking zero
#     undetected corruption (every corrupted packet is CRC-caught, NACKed and
#     retransmitted), and the ariserve kill/restart soak with chaos faults
#     active — byte-identical results across the restart with no completed
#     job re-executed;
#   - the cluster-wide chaos soak (DESIGN.md §14): three journalled ariserve
#     replicas behind an arigate front door, hard-killed and restarted
#     mid-flight while chaos faults are active inside every simulation. Every
#     job is answered byte-identically to an uninterrupted run, none is lost
#     or re-run (a post-soak resubmission sweep is served entirely from
#     journals — locally or via cross-replica peer fetch), and the
#     failover/hedging path is exercised. The cluster unit suites (ring
#     properties, breaker, gateway routing) and the arigate lifecycle smoke
#     run alongside.
soak:
	go test -race -count=1 ./internal/noc -run 'Soak|Chaos|Fault'
	go test -race -count=1 ./internal/core -run 'Watchdog|Fault|RunChecked|Truncated|Recycled|Close'
	go test -count=20 ./internal/core -run 'Recycled|Close'
	go test -race -count=1 ./internal/serve -run 'ChaosKillRestart' -timeout 10m
	go test -race -count=1 ./internal/cluster ./cmd/arigate -timeout 15m

# loadtest runs the serving robustness suites under -race: overload (shed
# requests answer 429 + Retry-After and the retrying client still completes
# every job), graceful drain (in-flight jobs finish, goroutine count returns
# to baseline), the kill/restart soak (byte-identical results, no completed
# job re-executed), and the ariserve lifecycle smoke tests (DESIGN.md §9).
loadtest:
	go test -race -count=1 ./internal/serve/... ./cmd/ariserve
	go test -race -count=1 ./internal/exp -run 'Journal|Retr|JobKey'

# obs runs the observability suites under vet + -race: registry/collector
# semantics (incl. the allocation-free sampling guard), the one Chrome trace
# exporter against its schema fixture (spans, and arisim -trace-out's packet
# document), the histogram rendering, the instrumented-vs-plain
# byte-identity lock on all three reply fabrics, the per-class NetStats
# counters, each fabric's packet stamps as the tracer sees them at delivery
# (ordered, above the fabric's floors, a retransmitted packet once) and
# their zero-load closed forms, the decomposition golden (with its DA2mesh
# rows) and lifecycle digest, the observed-job contract (a job with
# Job.Observe runs and is counted even when its key is stored; the sizing
# runs are Runner jobs), the /metrics, /debug/nocstate and pprof endpoint
# tests (DESIGN.md §10), the per-outcome counters the latency objectives
# are rebuilt from (the gateway's own bad_request row included), the
# distributed-tracing suites (trace continuation, hedge propagation,
# traced-vs-plain byte identity; DESIGN.md §15), the 2-replica traced
# cluster smoke (one gateway-routed job must export a single schema-valid
# Chrome trace spanning gateway, replica and NoC packets), and arisweep's
# per-point metrics: points run concurrently, yet each CSV equals a lone
# instrumented run's byte for byte, and a journalled point still writes
# its CSV.
obs:
	go vet ./internal/obs ./internal/serve/... ./internal/noc ./internal/exp
	go test -race -count=1 ./internal/obs ./internal/stats
	go test -race -count=1 ./internal/noc -run 'NetStats|VAGrant|Tracer|ConformanceZeroLoad'
	go test -race -count=1 ./internal/exp -run 'Decompose|Observed|Sizing'
	go test -race -count=1 ./internal/serve -run 'Metrics|NoCState|Pprof|Observability|Trace|ByteIdentical|DebugEndpoints|StageBoundaries'
	go test -race -count=1 ./internal/cluster -run 'Trace|RetryAfter|Rollup|ClusterMetrics|Contract|EveryCounter|Outcomes|BadRequests'
	go test -race -count=1 ./cmd/arisweep -run 'PointMetrics|JournalledSweep'
	go test -race -count=1 ./cmd/arisim -run 'TraceOut'

# profile captures a CPU profile of the ledger's hot regime: the
# sim-reply-saturated job list of benchmark/ (bfs/kmeans/pathfinder under
# Ada-Baseline and Ada-ARI) at its horizon, 1000 warmup + 3000 measured
# cycles, through RunChecked with the default watchdogs as every real caller
# runs it. One such run lasts ~0.2 s, too short for the 100 Hz sampler, so
# every job runs under PROFILE_SEEDS seeds into its own file and pprof merges
# them. Inspect further with `go tool pprof $(PROFILE_DIR)/arisim $(PROFILE_DIR)/*.pprof`.
# The sim-low-load job list (lavaMD/nn/binomialOptions under the same two
# schemes, 4000 warmup + 40000 measured cycles, LOWLOAD_SEEDS seeds) is
# profiled the same way into $(PROFILE_DIR)/low and gets its own merged top
# 30: the fixed per-cycle cost that sparse traffic exposes has a profile
# next to the saturated one. Then `ariexp -cpuprofile` profiles the two
# costliest figures, Fig 10 (the ARI ablation ladder at Table I load) and
# scale (4x4, 6x6 and 8x8 meshes), on the worker pool into
# $(PROFILE_DIR)/fig/10.pprof and scale.pprof, each with its own top 30.
# Last, core's BenchmarkNewSimulatorBurst (close serve-paths' 48
# simulators, build them again) writes two heap profiles, of 2 and 102
# bursts; the alloc_space top 15 of their difference is what 100 bursts of
# rebuilds on closed systems still allocate, with no fresh build in it.
PROFILE_DIR := .bench_build/profile
PROFILE_SEEDS := 1 2 3 4 5 6 7 8
LOWLOAD_SEEDS := 1 2
profile:
	mkdir -p $(PROFILE_DIR)/low $(PROFILE_DIR)/fig && rm -f $(PROFILE_DIR)/*.pprof $(PROFILE_DIR)/low/*.pprof $(PROFILE_DIR)/fig/*.pprof $(PROFILE_DIR)/*.heap
	go build -o $(PROFILE_DIR)/arisim ./cmd/arisim
	for b in bfs kmeans pathfinder; do for s in Ada-Baseline Ada-ARI; do for seed in $(PROFILE_SEEDS); do \
		$(PROFILE_DIR)/arisim -bench $$b -scheme $$s -warmup 1000 -cycles 3000 -seed $$seed \
			-cpuprofile $(PROFILE_DIR)/$$b.$$s.$$seed.pprof > /dev/null || exit 1; \
	done; done; done
	go tool pprof -top -nodecount 30 $(PROFILE_DIR)/arisim $(PROFILE_DIR)/*.pprof
	for b in lavaMD nn binomialOptions; do for s in Ada-Baseline Ada-ARI; do for seed in $(LOWLOAD_SEEDS); do \
		$(PROFILE_DIR)/arisim -bench $$b -scheme $$s -warmup 4000 -cycles 40000 -seed $$seed \
			-cpuprofile $(PROFILE_DIR)/low/$$b.$$s.$$seed.pprof > /dev/null || exit 1; \
	done; done; done
	go tool pprof -top -nodecount 30 $(PROFILE_DIR)/arisim $(PROFILE_DIR)/low/*.pprof
	go build -o $(PROFILE_DIR)/ariexp ./cmd/ariexp
	for f in 10 scale; do \
		$(PROFILE_DIR)/ariexp -fig $$f -cpuprofile $(PROFILE_DIR)/fig/$$f.pprof > /dev/null || exit 1; \
		go tool pprof -top -nodecount 30 $(PROFILE_DIR)/ariexp $(PROFILE_DIR)/fig/$$f.pprof || exit 1; \
	done
	for n in 2 102; do \
		go test ./internal/core -run '^$$' -bench NewSimulatorBurst -benchtime $${n}x -memprofilerate 1 \
			-memprofile $(PROFILE_DIR)/burst$$n.heap -o $(PROFILE_DIR)/core.test > /dev/null || exit 1; \
	done
	go tool pprof -sample_index=alloc_space -top -nodecount 15 -diff_base $(PROFILE_DIR)/burst2.heap \
		$(PROFILE_DIR)/core.test $(PROFILE_DIR)/burst102.heap

# fuzz replays the committed corpora and then fuzzes each target briefly.
fuzz:
	go test ./internal/core -run FuzzConfigValidate -fuzz FuzzConfigValidate -fuzztime 15s
	go test ./internal/trace -run FuzzKernelValidate -fuzz FuzzKernelValidate -fuzztime 15s
	go test ./internal/analytic -run FuzzEstimatorProperties -fuzz FuzzEstimatorProperties -fuzztime 15s
