package shard

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/eval"
)

// Chaos configures deliberate failure injection into the farm — the
// harness the crash-safety tests and the CI chaos job drive. Both
// channels apply only to a shard's FIRST attempt: a deterministic fault
// re-armed on every restart would re-fire forever and wedge the farm in
// a kill loop, so restarts always run clean.
type Chaos struct {
	// Kill lists shard indices to SIGKILL as soon as their journal
	// holds at least one completed work record — a guaranteed mid-run
	// kill with partial progress to resume from.
	Kill []int
	// FaultSpec is an internal/fault spec forwarded to workers (e.g.
	// "aes/*/cts=stall" to wedge the shard carrying aes until the
	// watchdog kills it).
	FaultSpec string
}

// Options configures a supervisor run.
type Options struct {
	// Suite defines the full evaluation matrix and the result-defining
	// options. Checkpoint, Units, Fault, and Events are supervisor-owned
	// and ignored here: journals live under Dir, sharding sets Units,
	// and Chaos.FaultSpec is the only supported injection channel (a
	// func cannot cross a process boundary).
	Suite eval.SuiteOptions
	// Dir holds every journal of the farm: the coordination journal
	// (farm.db), one shard journal per shard (shard-N.db), the
	// quarantined copies, and the merged result (merged.db).
	Dir string
	// Shards is the number of shards to split the matrix into
	// (default 4 — one per paper design at the default matrix, which
	// minimizes duplicate f_max searches). Capped at the unit count.
	Shards int
	// Procs bounds concurrently live worker processes (default: all
	// shards at once).
	Procs int
	// StallTimeout is how long a worker's journal may stop growing
	// before the watchdog presumes it wedged and kills it (default 30s).
	StallTimeout time.Duration
	// PollInterval is the watchdog's liveness-check cadence
	// (default 100ms).
	PollInterval time.Duration
	// MaxRestarts caps restarts per shard (default 2): a shard failing
	// its initial attempt plus MaxRestarts restarts fails the farm with
	// the worker's attributed exit cause and stderr tail.
	MaxRestarts int
	// Chaos injects deliberate failures (first attempts only).
	Chaos Chaos
	// Command builds the worker process for a serialized WorkerSpec.
	// The supervisor sets SpecEnv in the child's environment and owns
	// stderr capture; Command chooses the binary and arguments —
	// cmd/evalfarm re-invokes itself, tests re-invoke the test binary.
	Command func(spec string) (*exec.Cmd, error)
	// Log receives human-oriented progress lines (nil = silent).
	Log func(format string, args ...any)
}

// exitEvent is one reaped worker process.
type exitEvent struct {
	idx int
	err error
}

// running is one live worker process under supervision.
type running struct {
	sr           *shardRun
	cmd          *exec.Cmd
	stderr       *tailBuffer
	lastSize     int64
	lastProgress time.Time
	killReason   string // set before a deliberate kill (watchdog, chaos)
	chaosKill    bool   // armed to SIGKILL on first journal progress
}

// shardRun is the supervisor's per-shard ledger.
type shardRun struct {
	idx         int
	units       []eval.Unit
	attempt     int // grants so far (1 = first attempt)
	quarantines int
	notBefore   time.Time // backoff gate for the next grant
	owner       string    // current / last owner token
	outcome     string
	stderrTail  string
	done        bool
}

// Run executes the farm: shard the matrix, lease shards to worker
// processes, watchdog them to completion, merge the shard journals, and
// rehydrate the merged suite. The returned Farm carries the suite
// (every result checkpoint-restored from the merged journal — Tables
// I–VIII render byte-identical to a single-process run), the merged
// journal path, and the full coordination history.
//
// Run is itself crash-safe: killed and re-invoked with the same Options
// it revalidates every shard journal, marks complete shards done
// without spawning anything, and resumes the rest — the supervisor's
// own state lives in the journals, not in memory.
func Run(ctx context.Context, o Options) (*Farm, error) {
	if o.Command == nil {
		return nil, fmt.Errorf("shard: Options.Command is required")
	}
	if o.Dir == "" {
		return nil, fmt.Errorf("shard: Options.Dir is required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	logf := o.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Supervisor-owned fields; see Options.Suite.
	o.Suite.Checkpoint = ""
	o.Suite.Units = nil
	o.Suite.Fault = nil
	o.Suite.Events = nil

	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	shardPath := func(idx int) string {
		return filepath.Join(o.Dir, fmt.Sprintf("shard-%d.db", idx))
	}

	units := o.Suite.MatrixUnits()
	nshards := o.Shards
	if nshards <= 0 {
		nshards = 4
	}
	parts := Split(units, nshards)
	procs := o.Procs
	if procs <= 0 {
		procs = len(parts)
	}
	stallTimeout := o.StallTimeout
	if stallTimeout <= 0 {
		stallTimeout = 30 * time.Second
	}
	poll := o.PollInterval
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	maxRestarts := o.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 2
	}

	coord, err := eval.OpenCheckpoint(filepath.Join(o.Dir, "farm.db"), o.Suite)
	if err != nil {
		return nil, fmt.Errorf("shard: coordination journal: %w", err)
	}
	defer coord.Close()

	farm := &Farm{}
	shards := make([]*shardRun, len(parts))
	var pending []int
	for i, p := range parts {
		shards[i] = &shardRun{idx: i, units: p}
		pending = append(pending, i)
	}
	live := make(map[int]*running, procs)
	exits := make(chan exitEvent, len(parts))
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	doneCount := 0

	// killAll tears down every live worker and reaps it — the terminal
	// path for cancellation and farm-fatal errors. Expiries are still
	// journaled so a later resume sees a consistent lease history.
	killAll := func(reason string) {
		for _, r := range live {
			r.killReason = reason
			if r.cmd.Process != nil {
				_ = r.cmd.Process.Kill()
			}
		}
		for len(live) > 0 {
			ev := <-exits
			r := live[ev.idx]
			delete(live, ev.idx)
			_ = coord.PutLease(eval.Lease{
				Shard: ev.idx, Action: eval.LeaseExpire,
				Owner: r.sr.owner, Attempt: r.sr.attempt, Reason: reason,
			})
		}
	}

	// launch grants shard idx to a fresh owner: it validates (and if
	// need be quarantines) the shard journal, short-circuits shards the
	// journal already completes, and otherwise spawns the worker.
	launch := func(idx int) error {
		sr := shards[idx]
		path := shardPath(idx)
		jopt := o.Suite
		jopt.Units = sr.units

		_, missing, missingFmax, jerr := eval.JournalStatus(path, jopt)
		if jerr != nil {
			// Refuse-and-reassign: a journal that fails CRC or header
			// validation is set aside untouched for the post-mortem and
			// the shard restarts from nothing.
			sr.quarantines++
			qpath := fmt.Sprintf("%s.quarantined-%d", path, sr.quarantines)
			if rerr := os.Rename(path, qpath); rerr != nil {
				return fmt.Errorf("shard %d: quarantine rename: %w", idx, rerr)
			}
			if err := coord.PutLease(eval.Lease{
				Shard: idx, Action: eval.LeaseQuarantine,
				Owner: sr.owner, Attempt: sr.attempt, Reason: jerr.Error(),
			}); err != nil {
				return err
			}
			farm.Quarantines++
			logf("shard %d: journal quarantined to %s (%v)", idx, filepath.Base(qpath), jerr)
			missing, missingFmax = sr.units, nil // fresh journal: all work open
		}

		sr.attempt++
		sr.owner = fmt.Sprintf("s%d-a%d", idx, sr.attempt)
		if sr.attempt > 1 {
			farm.Restarts++
		}
		if err := coord.PutLease(eval.Lease{
			Shard: idx, Action: eval.LeaseGrant,
			Owner: sr.owner, Attempt: sr.attempt, Units: sr.units,
		}); err != nil {
			return err
		}

		if len(missing) == 0 && len(missingFmax) == 0 {
			// Everything the shard owes is already journaled (a prior
			// farm run, or a worker that died after its last record).
			if err := coord.PutLease(eval.Lease{
				Shard: idx, Action: eval.LeaseRelease,
				Owner: sr.owner, Attempt: sr.attempt, Reason: "complete in journal",
			}); err != nil {
				return err
			}
			sr.done = true
			sr.outcome = fmt.Sprintf("complete (journal, attempt %d)", sr.attempt)
			doneCount++
			logf("shard %d: already complete in journal", idx)
			return nil
		}

		spec := WorkerSpec{
			Journal:        path,
			Shard:          idx,
			Owner:          sr.owner,
			Attempt:        sr.attempt,
			Scale:          o.Suite.Scale,
			Seed:           o.Suite.Seed,
			FmaxIterations: o.Suite.FmaxIterations,
			Check:          string(o.Suite.Check),
			Workers:        o.Suite.Workers,
			FlowWorkers:    o.Suite.FlowWorkers,
			Units:          sr.units,
		}
		for _, d := range o.Suite.Designs {
			spec.Designs = append(spec.Designs, string(d))
		}
		for _, c := range o.Suite.Configs {
			spec.Configs = append(spec.Configs, string(c))
		}
		if sr.attempt == 1 {
			spec.Fault = o.Chaos.FaultSpec
		}
		raw, err := spec.Encode()
		if err != nil {
			return err
		}
		cmd, err := o.Command(raw)
		if err != nil {
			return fmt.Errorf("shard %d: build worker command: %w", idx, err)
		}
		tail := newTailBuffer(4096)
		cmd.Stderr = tail
		env := cmd.Env
		if env == nil {
			env = os.Environ()
		}
		cmd.Env = append(env, SpecEnv+"="+raw)
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("shard %d: start worker: %w", idx, err)
		}
		r := &running{
			sr:           sr,
			cmd:          cmd,
			stderr:       tail,
			lastProgress: time.Now(),
			chaosKill:    sr.attempt == 1 && containsInt(o.Chaos.Kill, idx),
		}
		if fi, err := os.Stat(path); err == nil {
			r.lastSize = fi.Size()
		}
		live[idx] = r
		go func() { exits <- exitEvent{idx: idx, err: cmd.Wait()} }()
		logf("shard %d: granted to %s (attempt %d, pid %d, %d unit(s))",
			idx, sr.owner, sr.attempt, cmd.Process.Pid, len(sr.units))
		return nil
	}

	// handleExit reaps one worker and decides release / expire+requeue /
	// farm failure. The old process is already dead and reaped here, so
	// appending the expiry that frees the shard cannot race a writer.
	handleExit := func(ev exitEvent) error {
		r := live[ev.idx]
		delete(live, ev.idx)
		sr := r.sr
		sr.stderrTail = r.stderr.String()

		jopt := o.Suite
		jopt.Units = sr.units
		_, missing, missingFmax, jerr := eval.JournalStatus(shardPath(ev.idx), jopt)
		complete := jerr == nil && len(missing) == 0 && len(missingFmax) == 0
		if complete && ev.err == nil && r.killReason == "" {
			if err := coord.PutLease(eval.Lease{
				Shard: ev.idx, Action: eval.LeaseRelease,
				Owner: sr.owner, Attempt: sr.attempt,
			}); err != nil {
				return err
			}
			sr.done = true
			sr.outcome = fmt.Sprintf("complete (attempt %d)", sr.attempt)
			doneCount++
			logf("shard %d: complete (attempt %d)", ev.idx, sr.attempt)
			return nil
		}

		reason := exitReason(r, ev.err)
		if err := coord.PutLease(eval.Lease{
			Shard: ev.idx, Action: eval.LeaseExpire,
			Owner: sr.owner, Attempt: sr.attempt, Reason: reason,
		}); err != nil {
			return err
		}
		farm.Expiries++
		if sr.attempt > maxRestarts {
			return fmt.Errorf("shard %d: failed after %d attempt(s): %s\n--- worker stderr tail ---\n%s",
				ev.idx, sr.attempt, reason, sr.stderrTail)
		}
		sr.notBefore = time.Now().Add(restartBackoff(sr.attempt))
		pending = append(pending, ev.idx)
		logf("shard %d: lease expired (%s); requeued for attempt %d", ev.idx, reason, sr.attempt+1)
		return nil
	}

	// watchdog runs once per poll: journal growth renews leases (and
	// triggers armed chaos kills); a journal silent past the stall
	// timeout gets its owner killed. A resumed worker first trims the
	// partial frame a killed append left, so a size change in either
	// direction counts as progress.
	watchdog := func() {
		now := time.Now()
		for idx, r := range live {
			fi, err := os.Stat(shardPath(idx))
			if err != nil {
				continue // worker has not created its journal yet
			}
			if fi.Size() != r.lastSize {
				r.lastSize = fi.Size()
				r.lastProgress = now
				_ = coord.PutLease(eval.Lease{
					Shard: idx, Action: eval.LeaseRenew,
					Owner: r.sr.owner, Attempt: r.sr.attempt,
				})
				if r.chaosKill && journalHasWork(shardPath(idx), o.Suite, r.sr.units) {
					r.chaosKill = false
					r.killReason = "chaos: killed mid-run"
					logf("shard %d: chaos SIGKILL (journal has work records)", idx)
					if r.cmd.Process != nil {
						_ = r.cmd.Process.Kill()
					}
				}
				continue
			}
			if now.Sub(r.lastProgress) > stallTimeout && r.killReason == "" {
				r.killReason = "stalled"
				logf("shard %d: no journal progress for %v; killing %s", idx, stallTimeout, r.sr.owner)
				if r.cmd.Process != nil {
					_ = r.cmd.Process.Kill()
				}
			}
		}
	}

	for doneCount < len(parts) {
		// Grant as many due shards as the process budget allows.
		now := time.Now()
		for len(live) < procs {
			picked := -1
			for i, idx := range pending {
				if !now.Before(shards[idx].notBefore) {
					picked = i
					break
				}
			}
			if picked < 0 {
				break
			}
			idx := pending[picked]
			pending = append(pending[:picked], pending[picked+1:]...)
			if err := launch(idx); err != nil {
				killAll("supervisor error: " + err.Error())
				return nil, fmt.Errorf("shard: %w", err)
			}
		}
		if doneCount == len(parts) {
			break
		}
		select {
		case <-ctx.Done():
			killAll("supervisor cancelled")
			return nil, ctx.Err()
		case ev := <-exits:
			if err := handleExit(ev); err != nil {
				killAll("farm failed: shard " + fmt.Sprint(ev.idx))
				return nil, fmt.Errorf("shard: %w", err)
			}
		case <-ticker.C:
			watchdog()
		}
	}

	// Merge the shard journals into the canonical result journal and
	// rehydrate the suite from it — every result restored, zero re-runs.
	merged := filepath.Join(o.Dir, "merged.db")
	paths := make([]string, len(parts))
	for i := range parts {
		paths[i] = shardPath(i)
	}
	if err := eval.MergeCheckpoints(merged, o.Suite, paths...); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	ropt := o.Suite
	ropt.Checkpoint = merged
	suite, err := eval.RunSuite(ctx, ropt)
	if err != nil {
		return nil, fmt.Errorf("shard: rehydrate merged journal: %w", err)
	}
	farm.Suite = suite
	farm.Merged = merged
	farm.Leases = coord.Leases()
	for _, sr := range shards {
		farm.Shards = append(farm.Shards, ShardState{
			Index:       sr.idx,
			Units:       sr.units,
			Attempts:    sr.attempt,
			Owner:       sr.owner,
			Quarantines: sr.quarantines,
			Outcome:     sr.outcome,
			StderrTail:  sr.stderrTail,
		})
	}
	logf("farm complete: %d shard(s), %d restart(s), %d expiry(ies), %d quarantine(s)",
		len(parts), farm.Restarts, farm.Expiries, farm.Quarantines)
	return farm, nil
}

// journalHasWork reports whether the shard journal holds at least one
// completed work record (an f_max search or a flow) — the chaos kill's
// "mid-run with partial progress" trigger. Concurrent reads are safe:
// both journal formats tolerate a truncated final append.
func journalHasWork(path string, opt eval.SuiteOptions, units []eval.Unit) bool {
	opt.Units = units
	done, _, missingFmax, err := eval.JournalStatus(path, opt)
	if err != nil {
		return false
	}
	if len(done) > 0 {
		return true
	}
	return len(missingFmax) < countDesigns(units)
}

func countDesigns(units []eval.Unit) int {
	n := 0
	for i, u := range units {
		fresh := true
		for _, v := range units[:i] {
			if v.Design == u.Design {
				fresh = false
				break
			}
		}
		if fresh {
			n++
		}
	}
	return n
}

// exitReason attributes a worker's death for the expiry record: the
// exit code or signal, prefixed with the supervisor's cause when the
// kill was deliberate ("stalled (signal: killed)"), and "exited
// incomplete" for a clean exit that left work unfinished.
func exitReason(r *running, exitErr error) string {
	cause := "exited incomplete"
	switch ee := exitErr.(type) {
	case nil:
	case *exec.ExitError:
		if code := ee.ExitCode(); code >= 0 {
			cause = fmt.Sprintf("exit %d", code)
		} else {
			cause = ee.ProcessState.String() // "signal: killed"
		}
	default:
		cause = exitErr.Error()
	}
	if r.killReason != "" {
		return r.killReason + " (" + cause + ")"
	}
	return cause
}

// restartBackoff is the capped exponential delay before re-granting a
// shard whose attempt'th lease just expired: 100ms, 200ms, 400ms, …
// capped at 2s.
func restartBackoff(attempt int) time.Duration {
	d := 100 * time.Millisecond
	for i := 1; i < attempt && d < 2*time.Second; i++ {
		d *= 2
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// tailBuffer keeps the last cap bytes written — enough stderr to
// attribute a dead worker without buffering an unbounded stream.
type tailBuffer struct {
	mu  sync.Mutex
	cap int
	buf []byte
}

func newTailBuffer(capacity int) *tailBuffer {
	return &tailBuffer{cap: capacity}
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.cap {
		t.buf = t.buf[len(t.buf)-t.cap:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
