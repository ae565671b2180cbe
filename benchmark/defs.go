package main

import (
	"encoding/json"

	"repro/internal/core"
)

// runSeconds is the measuring time the driver passes as --seconds; it is
// also the default of the stand-alone command. See README.md ("Sizes and
// the time budget") for how it was chosen.
const runSeconds = 20

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (-print-benchmark-json) and the smoke test asserts the checked-in
// file still matches them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks a simulated statistic or a count: for one -seed it must
	// repeat bit for bit, and -expect-digests / -compare treat any
	// difference as a failure.
	Exact bool
}

// endToEnd are the metrics a user of the stack waits for. Every workload
// emits every one of them (the driver's contract), measured over the
// workload's own job list. Host time only; simulated statistics live in
// perLayer.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_kcycles_per_s", Unit: "kcycles/s", Better: "higher", Bound: 0.25},
	{Name: "sweep_runs_per_s", Unit: "runs/s", Better: "higher", Bound: 0.25},
	{Name: "cold_jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the traced pass's metrics; the layer is the package name
// before the dot. They carry no bound.
var perLayer = []metricDef{
	// Shadow stepper: where one Simulator.Step spends host time.
	{Name: "gpu.tick_share", Unit: "ratio", Better: "lower"},
	{Name: "mem.tick_share", Unit: "ratio", Better: "lower"},
	{Name: "noc.req_step_share", Unit: "ratio", Better: "lower"},
	{Name: "noc.rep_step_share", Unit: "ratio", Better: "lower"},
	{Name: "noc.req_ns_per_switch", Unit: "ns", Better: "lower"},
	{Name: "noc.rep_ns_per_switch", Unit: "ns", Better: "lower"},
	{Name: "noc.req_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "noc.rep_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "gpu.ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "gpu.ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "mem.ns_per_reply", Unit: "ns", Better: "lower"},
	{Name: "core.chunk_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.chunk_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "core.chunks", Unit: "count", Better: "higher"},
	{Name: "core.new_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "core.alloc_bytes_per_kcycle", Unit: "B", Better: "lower"},
	{Name: "core.trace_overhead_pct", Unit: "%", Better: "lower"},

	// Simulated statistics of the workload's jobs (means over the job list).
	{Name: "core.ipc_gain_pct", Unit: "%", Better: "higher", Exact: true},
	{Name: "core.result_digest48", Unit: "hash", Better: "higher", Exact: true},
	{Name: "noc.rep_inj_link_util", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "noc.rep_mesh_link_util", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "noc.req_mesh_link_util", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "noc.rep_latency_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "noc.req_latency_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "noc.ni_occupancy_flits", Unit: "flits", Better: "lower", Exact: true},
	{Name: "noc.ni_full_rejects", Unit: "count", Better: "lower", Exact: true},
	{Name: "noc.credit_stall_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "mem.mc_stall_per_reply", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "mem.dram_row_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "cache.l1_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "cache.l2_hit_rate", Unit: "ratio", Better: "higher", Exact: true},

	// Isolated drivers under the SIMT core.
	{Name: "trace.ns_per_nextmem", Unit: "ns", Better: "lower"},
	{Name: "rng.ns_per_uint64", Unit: "ns", Better: "lower"},
	{Name: "cache.ns_per_access", Unit: "ns", Better: "lower"},

	// Sweep runner and journal.
	{Name: "exp.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exp.run_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "exp.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "exp.resume_runs_per_s", Unit: "runs/s", Better: "higher"},
	{Name: "exp.journal_append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exp.journal_append_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "exp.journal_open_ms", Unit: "ms", Better: "lower"},
	{Name: "exp.journal_get_us", Unit: "us", Better: "lower"},
	{Name: "exp.jobkey_us", Unit: "us", Better: "lower"},
	{Name: "exp.journal_bytes_per_run", Unit: "B", Better: "lower", Exact: true},

	// Estimator and the two fidelity references (demoted from end to end:
	// they are exact, may be 0, and only sweep-matrix spans the three
	// schemes the figures use — see README.md).
	{Name: "analytic.estimate_us", Unit: "us", Better: "lower"},
	{Name: "estimate_ipc_err_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "paper.fig11_ada_ari_gain", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "paper.fig12_ada_ari_stall_reduction", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "paper.fig5_reply_flit_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "paper.fig3_req_over_rep_latency", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "paper_err_pct", Unit: "%", Better: "lower", Exact: true},

	// Serving stack, client side.
	{Name: "serve.hit_jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "serve.estimate_jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "serve.cold_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "serve.estimate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.estimate_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "serve.peer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_direct_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.route_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.cpu_us_per_hit", Unit: "us", Better: "lower"},
	{Name: "serve.cpu_us_per_estimate", Unit: "us", Better: "lower"},

	// Serving stack, span self times pulled from /debug/spans.
	{Name: "serve.stage_admission_us", Unit: "us", Better: "lower"},
	{Name: "serve.stage_queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage_run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage_journal_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.stage_peer_fetch_us", Unit: "us", Better: "lower"},
	{Name: "cluster.stage_route_us", Unit: "us", Better: "lower"},
	{Name: "serve.trace_overhead_pct", Unit: "%", Better: "lower"},

	// Counters at the end of a round, to reconcile with failed_share.
	{Name: "serve.shed", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.completed", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.peer_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.estimated", Unit: "count", Better: "higher", Exact: true},
	{Name: "cluster.hedges", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Exact: true},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Exact: true},
}

// workload is one set of inputs: a job list (kernels x schemes x seeds at
// one horizon) that every path of the stack is driven with.
type workload struct {
	Name string
	Why  string

	Kernels []string
	Schemes []core.Scheme
	// Seeds is how many distinct simulator seeds each (kernel, scheme) pair
	// gets; every one is a distinct job key.
	Seeds           int
	Warmup, Measure int64
	// QuickKernels is how many leading kernels -quick keeps.
	QuickKernels int
}

var adaPair = []core.Scheme{core.AdaBaseline, core.AdaARI}

// workloads sizes every job list to about 2.4 s of serial simulation on
// the 2-core reference box, so that one round (serial + 2-worker sweep +
// served cold + the sub-millisecond phases) takes about 6 s.
var workloads = []workload{
	{
		Name:    "sim-reply-saturated",
		Why:     "read-heavy kernels that saturate reply injection (the paper's regime): dense VA/SA on the reply net and core stalls dominate a step",
		Kernels: []string{"bfs", "kmeans", "pathfinder"}, Schemes: adaPair, Seeds: 1,
		Warmup: 1000, Measure: 3000, QuickKernels: 1,
	},
	{
		Name:    "sim-write-mix",
		Why:     "write-heavy kernels put as many flits on the request net as on the reply net at unsaturated IPC; a reply-only gain predicts no change here",
		Kernels: []string{"transpose", "histogram", "hybridsort"}, Schemes: adaPair, Seeds: 1,
		Warmup: 2000, Measure: 6000, QuickKernels: 1,
	},
	{
		Name:    "sim-low-load",
		Why:     "sparse traffic on long horizons exercises the idle early-outs, not the allocators; any added per-cycle fixed cost shows here first",
		Kernels: []string{"lavaMD", "nn", "binomialOptions"}, Schemes: adaPair, Seeds: 1,
		Warmup: 4000, Measure: 40000, QuickKernels: 1,
	},
	{
		Name:    "sweep-matrix",
		Why:     "every third kernel of the suite under XY-Baseline, Ada-Baseline and Ada-ARI: the breadth ariexp/arisweep users run, with many journal appends per second",
		Kernels: []string{"bfs", "pathfinder", "streamcluster", "b+tree", "nw", "histogram", "reduction", "binomialOptions", "matrixMul", "mergeSort"},
		Schemes: []core.Scheme{core.XYBaseline, core.AdaBaseline, core.AdaARI}, Seeds: 1,
		Warmup: 500, Measure: 1500, QuickKernels: 2,
	},
	{
		Name:    "serve-paths",
		Why:     "48 distinct 50 ms jobs (8 light kernels x 2 schemes x 3 seeds): per-job cost (NewSimulator, fsync, HTTP, admission) is visible next to simulation",
		Kernels: []string{"sobolQRNG", "blackScholes", "monteCarlo", "quasirandomG", "matrixMul", "convolution", "fastWalsh", "mergeSort"},
		Schemes: adaPair, Seeds: 3,
		Warmup: 1000, Measure: 3000, QuickKernels: 1,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchmarkJSON renders the tables above as the root BENCHMARK.json.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain data
	}
	return append(b, '\n')
}
