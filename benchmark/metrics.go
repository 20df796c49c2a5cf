package main

// metricDef declares one metric the way BENCHMARK.json lists it. The
// tables below are the source of truth; TestBenchmarkJSON holds the JSON
// file to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a user of the system sees, printed by every
// untraced run of every workload. All are host time, and each is the
// least of the run's repetitions (runWorkload says why). What an
// operation and a pass are is the workload's to say (README.md,
// "Workloads"). The bounds are the widest the driver allows: the runner
// is a share of a busy host, and whole runs land in its slow phases
// (README.md, "Baseline").
//
// There is no tail percentile here: every workload prints every
// end-to-end metric, and only tuner-serve has the ten samples beyond a
// 99th percentile that make one meaningful (22, 396 and 2 operations a
// pass elsewhere). Its warm p99 is printed as tuner.warm_p99_us and
// probed per layer as tuner.http_p99_us.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
}

// perLayer are the single-layer numbers a traced run prints: dedicated
// probes that call one layer's public API, then what the traced pass of
// the selected workload showed. Names start with the layer's package.
var perLayer = []metricDef{
	// internal/sim: the engine alone.
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.spawn_us_per_proc", Unit: "us", Better: "lower"},
	// internal/mpi: world construction, message rate, payload copy, audit.
	{Name: "mpi.new_world_us_256", Unit: "us", Better: "lower"},
	{Name: "mpi.new_world_us_4", Unit: "us", Better: "lower"},
	{Name: "mpi.msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mpi.payload_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "mpi.teardown_us", Unit: "us", Better: "lower"},
	// internal/collectives and internal/core: one 8x32x2 / 64 KiB allgather.
	{Name: "collectives.hpcx_ag.events", Unit: "count", Better: "lower"},
	{Name: "collectives.hpcx_ag.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "collectives.mvapich2x_ag.events", Unit: "count", Better: "lower"},
	{Name: "collectives.mvapich2x_ag.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mha_ag.events", Unit: "count", Better: "lower"},
	{Name: "core.mha_ag.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mha_ag.virt_us", Unit: "virt_us", Better: "lower"},
	// Virtual clock: the summed modelled latency of paper-sweep's 8 MHA points.
	{Name: "core.virt_mha_us", Unit: "virt_us", Better: "lower"},
	// internal/sched: builder, analyzer, executor, synthesizer.
	{Name: "sched.build_us", Unit: "us", Better: "lower"},
	{Name: "sched.analyze_us", Unit: "us", Better: "lower"},
	{Name: "sched.simulate_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.exec_transfers_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sched.synth_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.synth_seeds", Unit: "count", Better: "lower"},
	// The smaller layers.
	{Name: "compose.lower_us", Unit: "us", Better: "lower"},
	{Name: "fabric.build_us", Unit: "us", Better: "lower"},
	{Name: "fabric.route_us", Unit: "us", Better: "lower"},
	{Name: "trace.hash_us", Unit: "us", Better: "lower"},
	{Name: "perfmodel.predict_ns", Unit: "ns", Better: "lower"},
	// internal/verify.
	{Name: "verify.generate_us", Unit: "us", Better: "lower"},
	{Name: "verify.check_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "verify.known_failing", Unit: "count", Better: "lower"},
	// internal/explore.
	{Name: "explore.steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "explore.execs", Unit: "count", Better: "lower"},
	{Name: "explore.replay_us", Unit: "us", Better: "lower"},
	{Name: "explore.sleep_skips", Unit: "count", Better: "higher"},
	// internal/tuner.
	{Name: "tuner.parse_canon_us", Unit: "us", Better: "lower"},
	{Name: "tuner.decide_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "tuner.handler_us", Unit: "us", Better: "lower"},
	{Name: "tuner.http_p50_us", Unit: "us", Better: "lower"},
	{Name: "tuner.http_p99_us", Unit: "us", Better: "lower"},
	{Name: "tuner.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "tuner.encode_us", Unit: "us", Better: "lower"},
	{Name: "tuner.cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tuner.synth_count", Unit: "count", Better: "lower"},
	{Name: "tuner.hit_ratio", Unit: "ratio", Better: "higher"},
	// The traced pass of the selected workload: self time of each call the
	// harness made, as a share of the pass (0 where the workload never
	// makes the call), and what tracing itself cost.
	{Name: "self_pct.harness", Unit: "%", Better: "lower"},
	{Name: "self_pct.mpi.New", Unit: "%", Better: "lower"},
	{Name: "self_pct.mpi.World.Run", Unit: "%", Better: "lower"},
	{Name: "self_pct.mpi.World.VerifyTeardown", Unit: "%", Better: "lower"},
	{Name: "self_pct.verify.Generate", Unit: "%", Better: "lower"},
	{Name: "self_pct.verify.Check", Unit: "%", Better: "lower"},
	{Name: "self_pct.explore.Run", Unit: "%", Better: "lower"},
	{Name: "self_pct.tuner.ParseQuery", Unit: "%", Better: "lower"},
	{Name: "self_pct.tuner.Query.Canonical", Unit: "%", Better: "lower"},
	{Name: "self_pct.tuner.Service.Decide", Unit: "%", Better: "lower"},
	{Name: "self_pct.sched.TwoPhaseMHA", Unit: "%", Better: "lower"},
	{Name: "self_pct.sched.Analyze", Unit: "%", Better: "lower"},
	{Name: "self_pct.sched.Simulate", Unit: "%", Better: "lower"},
	{Name: "self_pct.sched.Synthesize", Unit: "%", Better: "lower"},
	{Name: "self_pct.tuner.Decision.Encode", Unit: "%", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	// The untraced pass of the selected workload, as the host saw it.
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.alloc_mb_per_pass", Unit: "MB", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
}
