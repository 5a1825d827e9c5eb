// Intra-flow parallelism benchmarks: the bounded worker-pool kernels
// (internal/par) against their serial selves, on the workloads the flow
// engine actually fans out — the bisection placement frontier and one
// complete implementation flow.
// Results are byte-identical at any worker count (pinned by the
// workers-matrix and kernel equivalence tests); only wall-clock may
// move. bench/'s par.cpu_util and par.tasks measure the pool end to
// end. Pass -flowworkers to vary the parallel width:
//
//	go test -run xxx -bench 'Par|PlaceBisect' -benchtime 3x -flowworkers 8 .
package repro_test

import (
	"context"
	"flag"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/place"
)

var benchFlowWorkers = flag.Int("flowworkers", 8, "parallel width for the workers>1 sub-benchmarks")

// BenchmarkPlaceBisect runs the full recursive-bisection global placement
// of netcard serially and on the worker pool. The frontier doubles each
// level, so the parallel win grows with depth once the pool saturates.
func BenchmarkPlaceBisect(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("workers%d", *benchFlowWorkers), *benchFlowWorkers},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d, _ := benchDesign(b, *benchScale)
			region := geom.R(0, 0, 400, 400)
			opt := place.DefaultGlobalOptions()
			opt.Workers = tc.workers
			stats := &par.Stats{}
			opt.Par = stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := place.Global(d, region, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(stats.Batches)/float64(b.N), "batches/op")
			b.ReportMetric(float64(stats.Tasks)/float64(b.N), "tasks/op")
		})
	}
}

// BenchmarkFlowParallel implements netcard end to end (Hetero-M3D — the
// flow with every parallel kernel: bisection placement, level-parallel
// RC extraction and STA, clustered CTS) at FlowWorkers 1 vs N.
// The wall-clock ratio is the intra-flow parallelism payoff; the results
// themselves are identical by construction.
func BenchmarkFlowParallel(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("workers%d", *benchFlowWorkers), *benchFlowWorkers},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d, _ := benchDesign(b, *benchScale)
			opt := core.DefaultOptions(benchPeriod)
			opt.FlowWorkers = tc.workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(context.Background(), d, core.ConfigHetero, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
