package main

// metricDef defines one reported metric. End-to-end metrics are measured
// with tracing off on every workload and carry the bound by which a change
// may worsen them; per-layer metrics come from the traced run and name the
// end-to-end metric and workload they should move. BENCHMARK.json mirrors
// this table (TestBenchmarkJSONMatchesTable keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	// On lists the workloads that measure a per-layer metric; the traced
	// run of any other workload reports it as 0.
	On []string
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move.
	Moves string
	Doc   string
}

var all3 = []string{"suite", "scale", "serve"}

// endToEnd is measured on every workload with tracing off. An operation is
// one library call on suite and scale and one HTTP request on serve.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median over repeated set-ups of the time from workload start to the first timed call: input synthesis or HGR write; on serve, server start, journal open, probe and warm-up"},
	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median wall time of one repetition of the fixed, timed operation list: the suite and scale job lists (HGR parsing included on scale), a round of serve's closed loop"},
	{Name: "cut", Unit: "cut-cost", Better: "lower", Bound: 0.1,
		Doc: "sum of the best cut of every operation of one repetition (serve: of every request); deterministic for a seed"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15,
		Doc: "VmHWM of the process doing the work: the benchmark on suite and scale, propserve on serve"},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.01,
		Doc: "operations that succeeded and passed every output check over operations attempted (1 − fail_ratio)"},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median operation latency: on serve of the open loop, from each request's due time; on suite and scale over the job list, of each job's median time"},
	{Name: "req_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "nearest-rank p95 of the same latencies: on serve with at least 10 open-loop samples beyond it, on suite and scale the slowest job"},
	{Name: "sat_rps", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "operations completed per second while the client keeps the system busy: a closed-loop round at 2 connections on serve, one job-list repetition on suite and scale"},
}

var (
	suiteOnly = []string{"suite"}
	scaleOnly = []string{"scale"}
	serveOnly = []string{"serve"}
	lib       = []string{"suite", "scale"}
)

// perLayer is reported by the traced run (--trace 1). On suite and scale
// times and counts are per job list (the mean over the traced
// repetitions); on serve they come from the traced half of the open loop.
var perLayer = []metricDef{
	{Name: "engine.runs", Unit: "count", Better: "lower", On: suiteOnly, Moves: "solve_s/suite",
		Doc: "multi-start runs reported through Options.OnRun"},
	{Name: "engine.run_ms_p50", Unit: "ms", Better: "lower", On: suiteOnly, Moves: "solve_s/suite",
		Doc: "median run time, from consecutive OnRun timestamps at Parallel 1"},
	{Name: "core.prop_ms", Unit: "ms", Better: "lower", On: lib, Moves: "solve_s/suite",
		Doc: "wall time of the prop phase spans"},
	{Name: "core.passes", Unit: "count", Better: "lower", On: lib, Moves: "solve_s/suite",
		Doc: "PROP improvement passes (pass events with algo prop)"},
	{Name: "core.prop_ms_per_req", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve, sat_rps/serve",
		Doc: "phase_duration_ms{phase=prop} sum delta over the measured requests, per completed request"},
	{Name: "moves.moves", Unit: "count", Better: "lower", On: lib, Moves: "solve_s/suite",
		Doc: "virtual moves tried by the locked-move engines (pass events)"},
	{Name: "moves.kept_ratio", Unit: "ratio", Better: "higher", On: lib, Moves: "solve_s/suite",
		Doc: "moves kept after prefix rollback over moves tried; the rest is wasted work"},
	{Name: "fm.fm_ms", Unit: "ms", Better: "lower", On: suiteOnly, Moves: "solve_s/suite",
		Doc: "wall time of the fm and fm-tree phase spans"},
	{Name: "flow.corridor_ms", Unit: "ms", Better: "lower", On: suiteOnly, Moves: "solve_s/suite",
		Doc: "wall time of the corridor phase spans (extraction, expansion, max flow, adoption)"},
	{Name: "flow.dinic_ms", Unit: "ms", Better: "lower", On: suiteOnly, Moves: "solve_s/suite",
		Doc: "wall time of the dinic phase spans"},
	{Name: "flow.rounds", Unit: "count", Better: "lower", On: suiteOnly, Moves: "solve_s/suite, cut/suite",
		Doc: "corridor max-flow rounds (flow events)"},
	{Name: "flow.adopt_ratio", Unit: "ratio", Better: "higher", On: suiteOnly, Moves: "cut/suite",
		Doc: "flow rounds whose cut was adopted over rounds run"},
	{Name: "multiway.kway_ms", Unit: "ms", Better: "lower", On: suiteOnly, Moves: "solve_s/suite",
		Doc: "benchmark timer around prop.KWay"},
	{Name: "delta.apply_ms", Unit: "ms", Better: "lower", On: suiteOnly, Moves: "solve_s/suite",
		Doc: "delta_apply event durations of the ECO repartition"},
	{Name: "warm.chain_ms", Unit: "ms", Better: "lower", On: suiteOnly, Moves: "solve_s/suite",
		Doc: "warm-prop and polish phase spans of the ECO repartition"},
	{Name: "warm.polish_ms_per_req", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "phase_duration_ms{phase=polish} sum delta per completed request"},
	{Name: "hgio.read_ms", Unit: "ms", Better: "lower", On: scaleOnly, Moves: "solve_s/scale",
		Doc: "benchmark timer around hgio.ReadHGR: parse plus CSR build"},
	{Name: "hypergraph.arena_mb", Unit: "MiB", Better: "lower", On: scaleOnly, Moves: "peak_rss_mb/scale",
		Doc: "CSR arena footprint of the parsed input"},
	{Name: "hypergraph.hier_mb", Unit: "MiB", Better: "lower", On: scaleOnly, Moves: "peak_rss_mb/scale",
		Doc: "peak n-level hierarchy arenas on top of the input (largest over the job list)"},
	{Name: "cluster.nlevel_coarsen_ms", Unit: "ms", Better: "lower", On: scaleOnly, Moves: "solve_s/scale",
		Doc: "coarsen phase spans of the n-level runs"},
	{Name: "cluster.vcycle_coarsen_ms", Unit: "ms", Better: "lower", On: lib, Moves: "solve_s/scale",
		Doc: "coarsen phase spans of the V-cycle runs (ml-prop on suite, a small share there)"},
	{Name: "multilevel.nlevel_initial_ms", Unit: "ms", Better: "lower", On: scaleOnly, Moves: "solve_s/scale",
		Doc: "initial phase spans of the n-level runs"},
	{Name: "multilevel.nlevel_uncoarsen_ms", Unit: "ms", Better: "lower", On: scaleOnly, Moves: "solve_s/scale",
		Doc: "uncoarsen phase spans of the n-level runs (the localized unwind)"},
	{Name: "multilevel.nlevel_levels", Unit: "count", Better: "lower", On: scaleOnly, Moves: "solve_s/scale",
		Doc: "contractions in the first n-level hierarchy, mean per run"},
	{Name: "multilevel.vcycle_uncoarsen_ms", Unit: "ms", Better: "lower", On: lib, Moves: "solve_s/scale",
		Doc: "uncoarsen phase spans of the V-cycle runs"},
	{Name: "multilevel.vcycle_levels", Unit: "count", Better: "lower", On: lib, Moves: "solve_s/scale",
		Doc: "V-cycle coarsening levels, mean per run"},
	{Name: "propserve.partition_p50_ms", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "client-side open-loop p50 of unique /v1/partition requests"},
	{Name: "propserve.hit_p50_ms", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "client-side open-loop p50 of repeated (result-cache) /v1/partition requests"},
	{Name: "propserve.repartition_p50_ms", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "client-side open-loop p50 of /v1/repartition requests"},
	{Name: "propserve.batch_p50_ms", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "client-side open-loop p50 of single-item /v1/batch requests"},
	{Name: "propserve.solve_ms_p50", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "p50 of the elapsed_ms the server reports for each unique /v1/partition request: its solve time, the interval partition_latency observes"},
	{Name: "propserve.outside_solve_ms", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "p50 over the same requests of client latency minus elapsed_ms: decode, encode, HTTP and waiting"},
	{Name: "propserve.errors", Unit: "count", Better: "lower", On: serveOnly, Moves: "ok_ratio/serve",
		Doc: "errors_total delta over the measured requests"},
	{Name: "propserve.rejected", Unit: "count", Better: "lower", On: serveOnly, Moves: "ok_ratio/serve",
		Doc: "jobs_rejected_total plus tenant_rejected_total deltas (429s)"},
	{Name: "sched.queue_wait_ms_mean", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p95_ms/serve",
		Doc: "mean job_queue_wait_ms of the batch jobs, over both tenants"},
	{Name: "sched.fairness", Unit: "ratio", Better: "lower", On: serveOnly, Moves: "req_p95_ms/serve",
		Doc: "max over min tenant_jobs_completed_total delta per tenant (1 is fair)"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "result_cache hits over lookups"},
	{Name: "jobs.submit_ms_p50", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "Store.Submit p50 when the run's batch payloads are replayed through a journal on disk"},
	{Name: "jobs.finish_ms_p50", Unit: "ms", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "Store.Transition to done p50 in the same replay"},
	{Name: "jobs.fsyncs_per_job", Unit: "count", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "journal fsyncs per replayed job"},
	{Name: "jobs.bytes_per_job", Unit: "bytes", Better: "lower", On: serveOnly, Moves: "req_p50_ms/serve",
		Doc: "journal bytes written per replayed job"},
	{Name: "loadgen.late_ms_p95", Unit: "ms", Better: "lower", On: serveOnly, Moves: "health check: stays near 0",
		Doc: "p95 of how late the open-loop generator handed requests out; a run whose value exceeds one arrival period is invalid"},
	{Name: "obs.trace_overhead_pct", Unit: "pct", Better: "lower", On: all3, Moves: "health check: tracing cost",
		Doc: "traced over untraced time of the same operations, minus 1, in percent (serve: open-loop p50)"},
}
