package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/flow"
	"repro/internal/report"
)

// flowSnapshot renders everything about a completed flow that must be
// invariant under FlowWorkers: the full PPAC, the clock tree, the
// design-integrity check report, and every per-stage engine counter.
// Wall-clock stats are excluded — they are the only metric allowed to
// change with the worker count.
func flowSnapshot(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ppac %+v\n", *r.PPAC)
	if ct := r.Clock; ct != nil {
		fmt.Fprintf(&b, "clock buffers=%d maxLatency=%.9f skew=%.9f\n",
			len(ct.Buffers), ct.MaxLatency, ct.MaxSkew)
		for _, buf := range ct.Buffers {
			fmt.Fprintf(&b, "buf %s tier=%v loc=%v\n", buf.Name, buf.Tier, buf.Loc)
		}
	}
	for _, m := range r.Stages {
		keys := make([]string, 0, len(m.Stats))
		for k := range m.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "stage %s cells=%d", m.Name, m.Cells)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, m.Stats[k])
		}
		b.WriteByte('\n')
	}
	b.WriteString(report.CheckTable("checks", r.Checks).String())
	return b.String()
}

// TestFlowWorkersMatrix is the determinism pin for the intra-flow
// parallelism: one full AES Hetero-M3D implementation (checks enabled)
// must produce byte-identical results — PPAC, clock tree, stage
// counters, check report — at FlowWorkers 1, 2, and 8. Run under -race
// in CI, it doubles as the data-race sweep over the parallel place,
// route, STA, and CTS kernels.
func TestFlowWorkersMatrix(t *testing.T) {
	src := genSrc(t, designs.AES, 0.05)

	type run struct {
		workers int
		snap    string
		ppac    PPAC
	}
	var runs []run
	for _, w := range []int{1, 2, 8} {
		opt := DefaultOptions(testClock)
		opt.FlowWorkers = w
		opt.Check = CheckFull
		r, err := Run(context.Background(), src, ConfigHetero, opt)
		if err != nil {
			t.Fatalf("FlowWorkers=%d: %v", w, err)
		}
		runs = append(runs, run{w, flowSnapshot(r), *r.PPAC})
	}
	for _, r := range runs[1:] {
		if !reflect.DeepEqual(r.ppac, runs[0].ppac) {
			t.Errorf("PPAC differs between FlowWorkers=%d and FlowWorkers=%d:\n%+v\nvs\n%+v",
				runs[0].workers, r.workers, runs[0].ppac, r.ppac)
		}
		if r.snap != runs[0].snap {
			t.Errorf("flow snapshot differs between FlowWorkers=%d and FlowWorkers=%d (first diff line):\n%s",
				runs[0].workers, r.workers, firstDiffLine(runs[0].snap, r.snap))
		}
	}
	// The parallel path must actually have been exercised: the engine
	// counters account scheduled batches/tasks identically at any width.
	if !strings.Contains(runs[0].snap, flow.StatParBatches+"=") {
		t.Error("no par_batches counter in any stage — parallel kernels not wired")
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}
