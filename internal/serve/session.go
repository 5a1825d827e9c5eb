package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sta"
	"repro/internal/tech"
)

// TimingConfig is the canonical timing configuration of a served
// session: core.STAConfig, the one constructor behind the flow's own
// sign-off analysis, at the session's target frequency. clock is the
// synthesized tree when the session opened at or past the CTS boundary,
// nil for the ideal clock of earlier boundaries. The Router is left nil:
// sta defaults to a fresh extractor, and the session's Timer keeps it
// in its revision-keyed RC store. cfg does not shape the configuration:
// every flow configuration signs off with the same model.
//
// Exporting the recipe is what makes "byte-identical to offline"
// testable: a client can rebuild the same netlist state offline, run
// sta.Analyze with this config, and compare bit-for-bit.
func TimingConfig(clockGHz float64, cfg core.ConfigName, clock *cts.Result, workers int) (sta.Config, error) {
	if !(clockGHz > 0) {
		return sta.Config{}, fmt.Errorf("%w: clock %v GHz is not positive", ErrBadRequest, clockGHz)
	}
	var latency func(*netlist.Instance) float64
	if clock != nil {
		latency = clock.LatencyFunc()
	}
	return core.STAConfig(1/clockGHz, nil, latency, workers), nil
}

// session is one connection's live design: a journaled netlist at a
// stage boundary with a persistent incremental Timer attached.
type session struct {
	id       uint64
	design   string
	cfg      core.ConfigName
	boundary string
	clockGHz float64
	state
}

// state is what an OPEN hands its session: the design, the Timer
// attached to it, and the design's size for the session record.
type state struct {
	d           *netlist.Design
	timer       *sta.Timer
	cells, nets int32
}

// attach puts a fresh Timer on a flow result at the session's timing
// configuration; its first Update is a full analysis.
func attach(res *core.Result, req *OpenRequest, workers int) (state, error) {
	scfg, err := TimingConfig(req.ClockGHz, core.ConfigName(req.Config), res.Clock, workers)
	if err != nil {
		return state{}, err
	}
	timer, err := sta.NewTimer(res.Design, scfg)
	if err != nil {
		return state{}, fmt.Errorf("serve: attach timer: %w", err)
	}
	st := res.Design.ComputeStats()
	return state{d: res.Design, timer: timer, cells: int32(st.Cells), nets: int32(st.Nets)}, nil
}

// ---- shared immutable data and singleflight caches ----
//
// Three layers, all keyed on the full request parameters and built at
// most once (concurrent requesters wait on the first builder):
//
//	designs — generated source netlists. Read-only inside core.Run
//	          (the evaluation suite shares one across parallel flows),
//	          so one copy serves every session.
//	fmaxes  — per-design 2D-12T f_max searches (the suite's recipe).
//	snaps   — design-database snapshots at a boundary: the first OPEN
//	          runs the flow with SaveDesign and hands its live result
//	          to the session. The next identical OPEN builds the
//	          snapshot's baseline: it replays LoadDesign with StopAfter
//	          at the saved stage, which restores state without running
//	          any stage, attaches a Timer and runs its full update.
//	          Every identical OPEN from then on, that one included,
//	          forks the baseline (netlist.Design.Clone, sta.Timer.Fork),
//	          so its first TIMQ is an incremental update with nothing
//	          dirty. Baselines live as long as the server.

type designEntry struct {
	done chan struct{}
	src  *netlist.Design
	err  error
}

type fmaxEntry struct {
	done  chan struct{}
	fmax  float64
	cells int
	err   error
}

type snapEntry struct {
	done chan struct{}
	path string
	err  error
	// base is the snapshot's timed baseline, guarded by Server.mu: nil
	// until the first restoring OPEN claims the build, and again after
	// a failed build so a later OPEN retries it.
	base *baseline
}

// baseline is a snapshot restored once and fully timed. It is never
// mutated after its build: sessions fork it.
type baseline struct {
	done chan struct{}
	err  error
	state
}

func designKey(name string, scale float64, seed int64) string {
	return fmt.Sprintf("%s|%g|%d", name, scale, seed)
}

// lib12 returns the shared 12-track library (immutable; one per
// process is plenty).
var lib12 = cell.NewLibrary(tech.Variant12T())

// designFor returns the cached generated source netlist for a workload,
// generating it on first use.
func (s *Server) designFor(name string, scale float64, seed int64) (*netlist.Design, error) {
	key := designKey(name, scale, seed)
	s.mu.Lock()
	e, ok := s.designs[key]
	if !ok {
		e = &designEntry{done: make(chan struct{})}
		s.designs[key] = e
	}
	s.mu.Unlock()
	if ok {
		<-e.done
		return e.src, e.err
	}
	e.src, e.err = designs.Generate(designs.Name(name), lib12,
		designs.Params{Scale: scale, Seed: seed})
	if e.err != nil {
		e.err = fmt.Errorf("%w: generate %s: %v", ErrBadRequest, name, e.err)
		s.mu.Lock()
		delete(s.designs, key) // do not cache failures
		s.mu.Unlock()
	}
	close(e.done)
	return e.src, e.err
}

// fmaxFor returns the cached 2D-12T f_max of a workload, searching on
// first use with exactly the evaluation suite's recipe, its probes run
// under o, so a served PPAC reproduces cmd/ppac's numbers.
func (s *Server) fmaxFor(ctx context.Context, src *netlist.Design, req *PPACRequest, o core.Options) (float64, int, error) {
	key := fmt.Sprintf("%s|%d", designKey(req.Design, req.Scale, req.Seed), req.FmaxIterations)
	s.mu.Lock()
	e, ok := s.fmaxes[key]
	if !ok {
		e = &fmaxEntry{done: make(chan struct{})}
		s.fmaxes[key] = e
	}
	s.mu.Unlock()
	if ok {
		select {
		case <-e.done:
			return e.fmax, e.cells, e.err
		case <-ctx.Done():
			return 0, 0, ctx.Err()
		}
	}
	fopt := core.DefaultFmaxOptions()
	if req.FmaxIterations > 0 {
		fopt.Iterations = int(req.FmaxIterations)
	}
	e.fmax, _, e.err = core.FindFmax(ctx, fopt, core.FlowProbe(src, core.Config2D12T, o))
	if e.err == nil {
		e.cells = src.ComputeStats().Cells
	} else {
		s.mu.Lock()
		delete(s.fmaxes, key) // a cancelled search must not poison the cache
		s.mu.Unlock()
	}
	close(e.done)
	return e.fmax, e.cells, e.err
}

// sessionOptions is the option set every session flow runs under —
// DefaultOptions plus the request's seed. Keeping it centralized
// guarantees the save and load legs fingerprint-match and that an
// offline core.Run with the same recipe reproduces the session state.
func sessionOptions(req *OpenRequest, workers int) core.Options {
	o := core.DefaultOptions(req.ClockGHz)
	o.Seed = req.Seed
	o.FlowWorkers = workers
	return o
}

func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		default:
			return '+'
		}
	}, key)
}

// snapshotFor materializes the session state for an OPEN without an
// uploaded database. The first opener runs the flow to the boundary
// (saving a snapshot as it passes) and times its live result; later
// identical opens fork the snapshot's timed baseline.
func (s *Server) snapshotFor(ctx context.Context, req *OpenRequest, src *netlist.Design, events flow.Sink, workers int) (state, error) {
	cfg := core.ConfigName(req.Config)
	key := fmt.Sprintf("%s|%s|%g|%s", designKey(req.Design, req.Scale, req.Seed), req.Config, req.ClockGHz, req.Boundary)
	s.mu.Lock()
	e, ok := s.snaps[key]
	if !ok {
		dir, err := s.cacheDirLocked()
		if err != nil {
			s.mu.Unlock()
			return state{}, err
		}
		e = &snapEntry{done: make(chan struct{}), path: filepath.Join(dir, sanitizeKey(key)+".db")}
		s.snaps[key] = e
	}
	s.mu.Unlock()

	if !ok {
		// First opener: flow to the boundary, saving the snapshot.
		opt := sessionOptions(req, workers)
		opt.Events = events
		opt.SaveDesign = e.path
		opt.SaveAfter = req.Boundary
		opt.StopAfter = req.Boundary
		res, err := core.Run(ctx, src, cfg, opt)
		if err != nil {
			e.err = err
			s.mu.Lock()
			delete(s.snaps, key) // let a later OPEN retry after a cancel
			s.mu.Unlock()
			close(e.done)
			return state{}, err
		}
		close(e.done)
		return attach(res, req, workers)
	}

	select {
	case <-e.done:
	case <-ctx.Done():
		return state{}, ctx.Err()
	}
	if e.err != nil {
		return state{}, e.err
	}
	b, err := s.baselineFor(ctx, e, req, src, workers)
	if err != nil {
		return state{}, err
	}
	// The session's own exact copy: a cloned design and the Timer forked
	// onto it with the session's workers.
	d := b.d.Clone()
	return state{d: d, timer: b.timer.Fork(d, workers), cells: b.cells, nets: b.nets}, nil
}

// baselineFor returns the snapshot's timed baseline, building it on
// first use: the restore leg (StopAfter equals the file's saved stage,
// so zero stages run and the load materializes the saved state
// directly), then a Timer's full update. Concurrent openers wait for
// the one builder.
func (s *Server) baselineFor(ctx context.Context, e *snapEntry, req *OpenRequest, src *netlist.Design, workers int) (*baseline, error) {
	s.mu.Lock()
	b := e.base
	build := b == nil
	if build {
		b = &baseline{done: make(chan struct{})}
		e.base = b
	}
	s.mu.Unlock()
	if !build {
		select {
		case <-b.done:
			return b, b.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	opt := sessionOptions(req, workers)
	opt.LoadDesign = e.path
	opt.StopAfter = req.Boundary
	res, err := core.Run(ctx, src, core.ConfigName(req.Config), opt)
	if err == nil {
		b.state, err = attach(res, req, workers)
	}
	if err == nil {
		if _, err = b.timer.Update(); err != nil {
			err = fmt.Errorf("serve: timing update: %w", err)
		}
	}
	if err != nil {
		b.err = err
		s.mu.Lock()
		e.base = nil // let a later OPEN retry after a cancel
		s.mu.Unlock()
	}
	close(b.done)
	return b, err
}

// cacheDirLocked is ensureCacheDir for callers already holding s.mu.
func (s *Server) cacheDirLocked() (string, error) {
	if s.cacheDir != "" {
		// A configured directory need not exist yet (flowd -cache on a
		// fresh path); create it on first use.
		if err := os.MkdirAll(s.cacheDir, 0o755); err != nil {
			return "", fmt.Errorf("serve: snapshot cache: %w", err)
		}
		return s.cacheDir, nil
	}
	dir, err := os.MkdirTemp("", "flowd-cache-")
	if err != nil {
		return "", fmt.Errorf("serve: snapshot cache: %w", err)
	}
	s.cacheDir, s.ownCache = dir, true
	return dir, nil
}

// ---- request validation ----

func validConfig(name string) (core.ConfigName, error) {
	for _, c := range core.AllConfigs {
		if string(c) == name {
			return c, nil
		}
	}
	return "", fmt.Errorf("%w: unknown configuration %q", ErrBadRequest, name)
}

func validDesign(name string) error {
	for _, d := range designs.All {
		if string(d) == name {
			return nil
		}
	}
	return fmt.Errorf("%w: unknown design %q", ErrBadRequest, name)
}

func validBoundary(name string) error {
	for _, b := range core.SaveBoundaries() {
		if b == name {
			return nil
		}
	}
	return fmt.Errorf("%w: boundary %q is not one of %s",
		ErrBadRequest, name, strings.Join(core.SaveBoundaries(), ", "))
}

func validWorkload(design string, scale float64, seed int64, clockGHz float64) error {
	if err := validDesign(design); err != nil {
		return err
	}
	if !(scale > 0 && scale <= 4) {
		return fmt.Errorf("%w: scale %v out of range (0, 4]", ErrBadRequest, scale)
	}
	if seed <= 0 {
		return fmt.Errorf("%w: seed %d must be positive", ErrBadRequest, seed)
	}
	if clockGHz != 0 && !(clockGHz > 0.01 && clockGHz < 100) {
		return fmt.Errorf("%w: clock %v GHz out of range", ErrBadRequest, clockGHz)
	}
	return nil
}

// ---- request handlers (worker goroutine only) ----

func (c *serverConn) events(want bool) flow.Sink {
	if !want {
		return nil
	}
	return c.sink
}

func (c *serverConn) handleOpen(ctx context.Context, payload []byte) error {
	if c.sess != nil {
		return fmt.Errorf("%w: connection already holds session %d", ErrState, c.sess.id)
	}
	req, err := decodeOpenRequest(payload)
	if err != nil {
		return err
	}
	cfg, err := validConfig(req.Config)
	if err != nil {
		return err
	}
	if err := validWorkload(req.Design, req.Scale, req.Seed, req.ClockGHz); err != nil {
		return err
	}
	if !(req.ClockGHz > 0) {
		return fmt.Errorf("%w: clock %v GHz is not positive", ErrBadRequest, req.ClockGHz)
	}
	if err := validBoundary(req.Boundary); err != nil {
		return err
	}

	if !c.srv.admit.TryAcquire() {
		return fmt.Errorf("%w: %d of %d session slots in use",
			ErrBusy, c.srv.admit.Active(), c.srv.admit.Cap())
	}
	// The slot is released at connection teardown once the session is
	// established (holdSlot); until then any error path gives it back.
	defer func() {
		if !c.holdSlot {
			c.srv.admit.Release()
		}
	}()

	workers := par.Budget(c.srv.opt.Workers, c.srv.admit.Active())
	events := c.events(req.Events)

	src, err := c.srv.designFor(req.Design, req.Scale, req.Seed)
	if err != nil {
		return err
	}

	var st state
	if len(req.DB) > 0 {
		var res *core.Result
		if res, err = c.srv.openUpload(ctx, req, src, events, workers); err == nil {
			st, err = attach(res, req, workers)
		}
	} else {
		st, err = c.srv.snapshotFor(ctx, req, src, events, workers)
	}
	if err != nil {
		if errors.Is(err, core.ErrOptionsMismatch) {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return err
	}

	c.sess = &session{
		id:       c.srv.sessionSeq.Add(1),
		design:   req.Design,
		cfg:      cfg,
		boundary: req.Boundary,
		clockGHz: req.ClockGHz,
		state:    st,
	}
	c.holdSlot = true

	info := SessionInfo{
		ID:       c.sess.id,
		Cells:    st.cells,
		Nets:     st.nets,
		Boundary: req.Boundary,
		ClockGHz: req.ClockGHz,
	}
	c.writeFrame(TagSession, info.encode())
	return nil
}

// openUpload materializes a session from a client-supplied design
// database image: the flow resumes from the file's saved stage and
// stops at the requested boundary (zero stages when they coincide).
func (s *Server) openUpload(ctx context.Context, req *OpenRequest, src *netlist.Design, events flow.Sink, workers int) (*core.Result, error) {
	dir, err := s.ensureCacheDir()
	if err != nil {
		return nil, err
	}
	if err := core.VerifyDesignFile(req.DB); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "upload-*.db")
	if err != nil {
		return nil, fmt.Errorf("serve: stage upload: %w", err)
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(req.DB); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: stage upload: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("serve: stage upload: %w", err)
	}
	opt := sessionOptions(req, workers)
	opt.Events = events
	opt.LoadDesign = f.Name()
	opt.StopAfter = req.Boundary
	return core.Run(ctx, src, core.ConfigName(req.Config), opt)
}

func (c *serverConn) handleMutate(payload []byte) error {
	if c.sess == nil {
		return fmt.Errorf("%w: no open session (send OPEN first)", ErrState)
	}
	muts, err := decodeMutations(payload)
	if err != nil {
		return err
	}
	d := c.sess.d
	tiers := c.sess.cfg.Tiers()

	// Validate the whole batch before touching the journal: a rejected
	// batch leaves the session's netlist exactly as it was.
	insts := make([]*netlist.Instance, len(muts))
	for i, m := range muts {
		var inst *netlist.Instance
		switch {
		case m.Name != "":
			if inst = d.Instance(m.Name); inst == nil {
				return fmt.Errorf("%w: mutation %d: no instance named %q", ErrBadRequest, i, m.Name)
			}
		case m.ID >= 0 && int(m.ID) < len(d.Instances):
			inst = d.Instances[m.ID]
		default:
			return fmt.Errorf("%w: mutation %d: instance ID %d out of range [0, %d)",
				ErrBadRequest, i, m.ID, len(d.Instances))
		}
		switch m.Kind {
		case MutSetLoc:
		case MutSetTier:
			if int(m.Tier) >= tiers {
				return fmt.Errorf("%w: mutation %d: tier %d invalid for %d-tier config %s",
					ErrBadRequest, i, m.Tier, tiers, c.sess.cfg)
			}
		default:
			return fmt.Errorf("%w: mutation %d: unknown kind %d", ErrBadRequest, i, m.Kind)
		}
		insts[i] = inst
	}
	for i, m := range muts {
		switch m.Kind {
		case MutSetLoc:
			insts[i].SetLoc(geom.Point{X: m.X, Y: m.Y})
		case MutSetTier:
			insts[i].SetTier(tech.Tier(m.Tier))
		}
	}
	res := MutateResult{Applied: int32(len(muts))}
	c.writeFrame(TagMutateRes, res.encode())
	return nil
}

func (c *serverConn) handleTiming(payload []byte) error {
	if c.sess == nil {
		return fmt.Errorf("%w: no open session (send OPEN first)", ErrState)
	}
	if len(payload) != 0 {
		return db.Corruptf("timing query carries %d unexpected payload bytes", len(payload))
	}
	res, err := c.sess.timer.Update()
	if err != nil {
		return fmt.Errorf("serve: timing update: %w", err)
	}
	out := TimingOf(res)
	st := c.sess.timer.Stats()
	out.FullUpdates = int64(st.FullUpdates)
	out.IncrementalUpdates = int64(st.IncrementalUpdates)
	out.NodesReevaluated = int64(st.NodesReevaluated)
	c.writeFrame(TagTimingRes, out.encode())
	return nil
}

func (c *serverConn) handlePPAC(ctx context.Context, payload []byte) error {
	if c.sess != nil {
		return fmt.Errorf("%w: PPAC is a one-shot request; this connection holds session %d",
			ErrState, c.sess.id)
	}
	req, err := decodePPACRequest(payload)
	if err != nil {
		return err
	}
	cfg, err := validConfig(req.Config)
	if err != nil {
		return err
	}
	if err := validWorkload(req.Design, req.Scale, req.Seed, 0); err != nil {
		return err
	}
	if req.FmaxIterations < 0 || req.FmaxIterations > 32 {
		return fmt.Errorf("%w: fmax iterations %d out of range [0, 32]", ErrBadRequest, req.FmaxIterations)
	}

	if !c.srv.admit.TryAcquire() {
		return fmt.Errorf("%w: %d of %d session slots in use",
			ErrBusy, c.srv.admit.Active(), c.srv.admit.Cap())
	}
	defer c.srv.admit.Release()

	workers := par.Budget(c.srv.opt.Workers, c.srv.admit.Active())
	events := c.events(req.Events)

	src, err := c.srv.designFor(req.Design, req.Scale, req.Seed)
	if err != nil {
		return err
	}
	// The evaluation suite's exact flow recipe, for the f_max probes and
	// for the flow at the searched f_max — this is what makes the served
	// PPAC byte-identical to cmd/ppac's.
	o := core.DefaultOptions(1)
	o.Seed = req.Seed
	o.Events = events
	o.FlowWorkers = workers
	fmax, cells, err := c.srv.fmaxFor(ctx, src, req, o)
	if err != nil {
		return err
	}
	if events != nil {
		c.sink.FmaxDone(req.Design, cells, fmax)
	}
	o.ClockGHz = fmax
	res, err := core.Run(ctx, src, cfg, o)
	if err != nil {
		return err
	}
	if events != nil {
		c.sink.ConfigDone(req.Design, cfg, res.PPAC)
	}
	out := PPACResult{FmaxGHz: fmax, PPAC: res.PPAC}
	c.writeFrame(TagPPACRes, out.encode())
	return nil
}
