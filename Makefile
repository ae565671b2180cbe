.PHONY: check test bench-ledger-check goldens figures-check validate-analytic fuzz soak loadtest obs profile

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
# the analytic error bands (90 simulations; review the diff, never widen a
# band by hand), and the figures — the Markdown report
# experiments_full.txt and every results_csv/ file from one `ariexp -fig all`
# pass. A change that moves the model on purpose runs it in the same
# commit, never separately; EXPERIMENTS.md is then updated from
# experiments_full.txt by hand.
goldens:
	go test ./internal/simeq -run 'GoldenDeterminism|MatrixDigests' -count=1 -update
	go test ./internal/exp -run 'Decompose|FiguresGenerate' -count=1 -update
	go test ./internal/analytic -run TestErrorBands -count=1 -analytic-full -analytic-record
	go run ./cmd/ariexp -fig all -csv results_csv | tee experiments_full.txt

# figures-check proves the committed figures are what the tree produces:
# it regenerates the whole evaluation (`ariexp -fig all -csv`, 566
# simulations, ~1 min on two CPUs) into a temp dir and fails unless every
# CSV equals results_csv/ (diff -r) and the report equals
# experiments_full.txt. ariexp writes its wall time to stderr, so the report
# is diffed whole.
figures-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/ariexp -fig all -csv "$$tmp/csv" > "$$tmp/report.txt" && \
	diff -r results_csv "$$tmp/csv" && diff experiments_full.txt "$$tmp/report.txt"

# validate-analytic is the physics drift oracle (DESIGN.md §12): re-run the
# analytical estimator against the cycle-accurate simulator over the full
# benchmark suite x validation schemes and fail when any per-workload error
# drifts outside the recorded bands (internal/analytic/testdata/
# error_bands.json). Both sides are deterministic, so a drift means the
# simulator's physics or the model changed; re-record deliberately with
#   go test ./internal/analytic -run TestErrorBands -analytic-record
validate-analytic:
	go test ./internal/analytic -run TestErrorBands -analytic-full -count=1 -v

# soak runs every robustness soak under -race:
#   - fault injection (DESIGN.md §8): seeded NoC fault schedules across
#     schemes with invariants checked throughout, the watchdog
#     deadlock/starvation detectors, and deterministic replay under faults;
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
	go test -race -count=1 ./internal/fault
	go test -race -count=1 ./internal/core -run 'Watchdog|Fault|RunChecked|Truncated'
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
# semantics (incl. the allocation-free sampling guard), the Chrome-trace
# schema fixture, the instrumented-vs-plain byte-identity lock on all three
# reply fabrics, the per-class NetStats counters, the per-fabric tracer event
# order, the decomposition (with its DA2mesh rows) + SLO-figure goldens, the
# /metrics, /debug/nocstate and pprof endpoint tests (DESIGN.md §10), the
# distributed-tracing suites (trace continuation, hedge propagation,
# traced-vs-plain byte identity; DESIGN.md §15), and the 2-replica traced
# cluster smoke: one gateway-routed job must export a single schema-valid
# Chrome trace spanning gateway, replica and NoC packets.
obs:
	go vet ./internal/obs ./internal/serve/... ./internal/noc ./internal/exp
	go test -race -count=1 ./internal/obs ./internal/stats
	go test -race -count=1 ./internal/noc -run 'NetStats|VAGrant|Tracer'
	go test -race -count=1 ./internal/exp -run 'Decompose|SLOFigure'
	go test -race -count=1 ./internal/serve -run 'Metrics|NoCState|Pprof|Observability|Trace|ByteIdentical|DebugEndpoints|StageBoundaries'
	go test -race -count=1 ./internal/cluster -run 'Trace|RetryAfter|Rollup|ClusterMetrics|Contract|EveryCounter|Outcomes'

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
# next to the saturated one.
# One job (bfs, Ada-ARI) also writes a heap profile, whose alloc_space top
# 15 shows what building and running a simulator allocates: construction
# footprint has a figure next to the CPU profile.
PROFILE_DIR := .bench_build/profile
PROFILE_SEEDS := 1 2 3 4 5 6 7 8
LOWLOAD_SEEDS := 1 2
profile:
	mkdir -p $(PROFILE_DIR)/low && rm -f $(PROFILE_DIR)/*.pprof $(PROFILE_DIR)/low/*.pprof $(PROFILE_DIR)/mem.heap
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
	$(PROFILE_DIR)/arisim -bench bfs -scheme Ada-ARI -warmup 1000 -cycles 3000 \
		-memprofile $(PROFILE_DIR)/mem.heap > /dev/null
	go tool pprof -sample_index=alloc_space -top -nodecount 15 $(PROFILE_DIR)/arisim $(PROFILE_DIR)/mem.heap

# fuzz replays the committed corpora and then fuzzes each target briefly.
fuzz:
	go test ./internal/core -run FuzzConfigValidate -fuzz FuzzConfigValidate -fuzztime 15s
	go test ./internal/trace -run FuzzKernelValidate -fuzz FuzzKernelValidate -fuzztime 15s
	go test ./internal/analytic -run FuzzEstimatorProperties -fuzz FuzzEstimatorProperties -fuzztime 15s
