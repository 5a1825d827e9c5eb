package shard

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/eval"
	"repro/internal/fault"
)

// SuiteOptions reconstructs the eval options a worker runs under. The
// result-defining fields come straight from the spec so the shard
// journal's header is byte-for-byte the header the supervisor and the
// merge derive from the same options.
func (s WorkerSpec) SuiteOptions() (eval.SuiteOptions, error) {
	opt := eval.SuiteOptions{
		Scale:          s.Scale,
		Seed:           s.Seed,
		FmaxIterations: s.FmaxIterations,
		Check:          core.CheckMode(s.Check),
		Workers:        s.Workers,
		FlowWorkers:    s.FlowWorkers,
		Checkpoint:     s.Journal,
		Units:          append([]eval.Unit{}, s.Units...),
	}
	for _, d := range s.Designs {
		opt.Designs = append(opt.Designs, designs.Name(d))
	}
	for _, c := range s.Configs {
		opt.Configs = append(opt.Configs, core.ConfigName(c))
	}
	if s.Fault != "" {
		plan, err := fault.ParseSpec(s.Fault)
		if err != nil {
			return opt, fmt.Errorf("shard: worker %s: %w", s.Owner, err)
		}
		opt.Fault = plan
	}
	return opt, nil
}

// RunWorker executes one shard in this process: it opens (or resumes)
// the shard's private journal and runs the suite restricted to the
// shard's units. Exit discipline for worker processes: return nil →
// exit 0 (the supervisor then verifies the journal is complete before
// releasing the lease); any error → non-zero exit, and the supervisor
// attributes it from the exit code plus the captured stderr tail. A
// worker never touches the coordination journal.
func RunWorker(ctx context.Context, spec WorkerSpec) error {
	opt, err := spec.SuiteOptions()
	if err != nil {
		return err
	}
	if _, err := eval.RunSuite(ctx, opt); err != nil {
		return fmt.Errorf("shard %d (owner %s, attempt %d): %w",
			spec.Shard, spec.Owner, spec.Attempt, err)
	}
	return nil
}
