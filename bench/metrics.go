package main

import "repro/internal/core"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestMetricTablesMatchBenchmarkJSON keeps
// the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the flow sees, reported with
// --trace 0. Each is the median over the run's timed repetitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics, reported with --trace 1. A layer
// a workload never runs reads 0 on that workload.
var perLayer = []metricDef{
	// Stage walls from Result.Stages, one per layer.
	{"netlist.map_ms", "ms", "lower"},
	{"synth.presize_ms", "ms", "lower"},
	{"place.global_ms", "ms", "lower"},
	{"place.legalize_ms", "ms", "lower"},
	{"partition.timing_ms", "ms", "lower"},
	{"partition.fm_ms", "ms", "lower"},
	{"partition.eco_ms", "ms", "lower"},
	{"cts.build_ms", "ms", "lower"},
	{"core.repair_ms", "ms", "lower"},
	{"core.power_recovery_ms", "ms", "lower"},
	{"power.signoff_ms", "ms", "lower"},
	// Engine counters from StageMetric.Stats (serve: the sessions' Timer
	// counters).
	{"sta.full_updates", "count", "lower"},
	{"sta.incr_updates", "count", "lower"},
	{"sta.nodes_k", "k", "lower"},
	{"route.rc_misses", "count", "lower"},
	{"route.rc_hit_rate", "ratio", "higher"},
	{"par.tasks", "count", "lower"},
	{"place.congestion_retries", "count", "lower"},
	{"par.cpu_util", "ratio", "higher"},
	// Suite orchestration.
	{"eval.fmax_s", "s", "lower"},
	{"eval.busy_frac", "ratio", "higher"},
	// Kernels timed directly on the finished design in the traced pass.
	{"sta.analyze_full_ms", "ms", "lower"},
	{"sta.update_incr_ms", "ms", "lower"},
	{"route.extract_all_ms", "ms", "lower"},
	{"power.analyze_ms", "ms", "lower"},
	{"db.load_ms", "ms", "lower"},
	{"db.verify_ms", "ms", "lower"},
	// The serve layer, client side.
	{"serve.open_p50_ms", "ms", "lower"},
	{"serve.first_timing_p50_ms", "ms", "lower"},
	{"serve.first_answer_p50_ms", "ms", "lower"},
	{"serve.mutate_p50_ms", "ms", "lower"},
	{"serve.timing_p50_ms", "ms", "lower"},
	{"serve.timing_p99_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.ops_per_sec", "1/s", "higher"},
	// Traced wall over the untraced median.
	{"trace.wall_ratio", "ratio", "lower"},
}

// isolationClaim is a share of wall_s that a workload's choice rests on:
// the workload spends at least min and at most max of its wall time in
// the metric's layer (max 0: it never runs that layer).
type isolationClaim struct {
	workload, metric string
	min, max         float64
}

var isolationClaims = []isolationClaim{
	{"flow-netcard-hetero", "partition.fm_ms", 0.15, 1},
	{"flow-cpu-2d", "place.global_ms", 0.25, 1},
	{"flow-cpu-2d", "partition.fm_ms", 0, 0},
	{"serve-cpu-whatif", "partition.fm_ms", 0, 0},
	{"serve-cpu-whatif", "place.global_ms", 0, 0},
}

// stageLayer maps a flow stage to the per-layer metric its wall adds to.
// Stages missing here (macro-tiers, retarget, level-shifters) take well
// under 1 % of any flow.
var stageLayer = map[string]string{
	core.StageMap:             "netlist.map_ms",
	core.StageSynth:           "synth.presize_ms",
	core.StagePlace:           "place.global_ms",
	core.StageLegalize:        "place.legalize_ms",
	core.StageTimingPartition: "partition.timing_ms",
	core.StagePartition:       "partition.fm_ms",
	core.StageECO:             "partition.eco_ms",
	core.StageCTS:             "cts.build_ms",
	core.StageRepair:          "core.repair_ms",
	core.StageFinalRepair:     "core.repair_ms",
	core.StagePower:           "core.power_recovery_ms",
	core.StageSignoff:         "power.signoff_ms",
}
