package flow

// The stat-key registry: every key passed to Context.AddStat must be one
// of these constants, and every constant here is one some AddStat call
// writes. Keys travel from the engines through StageMetric maps into
// Totals and the -stage-report table (one column per key written), and
// the resilience reports read the robustness keys back by name — a
// typo'd string would silently read as zero, so the statkeys analyzer
// (tools/analyzers) rejects AddStat calls whose key is not a constant
// declared here.
const (
	// Incremental timing engine counters (internal/core's timingEnv).
	StatSTAFull  = "sta_full"  // full timing-graph rebuilds
	StatSTAIncr  = "sta_incr"  // incremental timer updates
	StatSTANodes = "sta_nodes" // timing nodes re-evaluated
	StatRCHits   = "rc_hits"   // RC extraction cache hits
	StatRCMisses = "rc_misses" // RC extraction cache misses

	// Design-integrity checker counters (internal/check via the core
	// flow's Boundary.After).
	StatCheckRules      = "check_rules"      // rules executed at the boundary
	StatCheckObjects    = "check_objects"    // objects examined
	StatCheckViolations = "check_violations" // findings at any severity
	StatCheckErrors     = "check_errors"     // findings at Error severity

	// Robustness counters (the fault harness, the degradation paths, and
	// the congestion-driven placement retry). The resilience report
	// (eval.Suite.ResilienceReport) aggregates these across the suite.
	StatCongestionRetries = "congestion_retries" // place re-runs at relaxed utilization
	StatFaultsInjected    = "faults_injected"    // faults the harness fired in the stage
	StatStageReruns       = "stage_reruns"       // degraded-mode stage re-runs
	StatDegradeFullSTA    = "degrade_full_sta"   // downgrades to full-STA recomputes
	StatDegradeUtil       = "degrade_util"       // extra utilization relaxations past the retry budget
	StatPanicsRecovered   = "panics_recovered"   // stage panics recovered into errors

	// Intra-flow parallelism counters (internal/par fan-outs inside the
	// place/route/sta/cts kernels). Both count *scheduled* work — fan-out
	// rounds and the items they dispatched — which is identical at any
	// worker count, so surfacing them keeps flow results byte-identical
	// whatever -flow-workers is set to.
	StatParBatches = "par_batches" // parallel fan-out rounds executed
	StatParTasks   = "par_tasks"   // work items dispatched across those rounds
)
