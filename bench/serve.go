package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/sta"
	"repro/internal/tech"
)

// The what-if traffic: closed-loop sessions over nproc client
// connections, each session OPEN, a first TIMQ, serveRounds rounds of
// [MUTS of serveMoves SetLoc + TIMQ], then CLOS. A batch runs
// servePerConn sessions on every connection; every batch of a seed runs
// the same sessions.
const (
	servePerConn  = 2
	serveRounds   = 200
	serveMoves    = 8
	serveScale    = 0.25
	serveClockGHz = 0.95
	// serveSpanUM bounds the coordinates the moves send cells to.
	serveSpanUM = 150.0
)

// sessionLog is one session's client-side record.
type sessionLog struct {
	open, firstTiming time.Duration
	mutate, timing    []time.Duration
	final             serve.TimingResult
	// batches holds every MUTS batch, kept for the sessions an offline
	// twin replays.
	batches [][]serve.Mutation
	ops     int
	err     error
}

// runServe measures what-if sessions against an in-process flowd on
// loopback. Set-up is the server start plus the cold OPEN that runs the
// flow and saves the snapshot. An untimed warm-up batch follows: its
// sessions are the ones checked, and every timed batch after it must give
// the same answers. Timed batches then follow one another, each one
// sample, until another would end past the repetition's deadline (at
// least one).
func runServe(req childRequest, res *repResult) (err error) {
	dir, err := os.MkdirTemp("", "bench-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var rec *recorder
	if req.Traced {
		rec = newRecorder()
	}
	open := serve.OpenRequest{
		Design: string(designs.CPU), Config: string(core.ConfigHetero),
		Scale: scaleOf(req, serveScale), Seed: req.Seed,
		ClockGHz: serveClockGHz, Boundary: core.StageSignoff,
	}

	var srv *server
	setup := rec.begin("serve.setup", "setup", 0)
	if err := timeSetup(res, func() (err error) {
		srv, err = startServer(dir, &open)
		return err
	}); err != nil {
		return err
	}
	rec.end(setup)
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	warm := runBatch(srv.addr, open, nil, true)
	for i := range warm {
		res.Ops += warm[i].ops
		if warm[i].err != nil {
			return fmt.Errorf("warm-up session %d: %w", i, warm[i].err)
		}
		res.Layer["sta.full_updates"] += float64(warm[i].final.FullUpdates)
		res.Layer["sta.incr_updates"] += float64(warm[i].final.IncrementalUpdates)
		res.Layer["sta.nodes_k"] += float64(warm[i].final.NodesReevaluated) / 1e3
	}
	answers := timingDigest(warm)
	snaps, err := filepath.Glob(filepath.Join(dir, "*.db"))
	if err != nil || len(snaps) != 1 {
		return fmt.Errorf("want one snapshot in the server cache, found %d (%v)", len(snaps), err)
	}
	src, err := designs.Generate(designs.CPU, cell.NewLibrary(tech.Variant12T()),
		designs.Params{Scale: open.Scale, Seed: open.Seed})
	if err != nil {
		return err
	}
	opt := core.DefaultOptions(open.ClockGHz)
	opt.Seed = open.Seed
	opt.FlowWorkers = nproc
	for i := range warm {
		if warm[i].batches != nil {
			if err := checkTwin(src, open, opt, snaps[0], &warm[i]); err != nil {
				res.fail("session %d twin: %v", i, err)
			}
		}
	}
	r, err := loadSnapshot(src, open, opt, snaps[0])
	if err != nil {
		return err
	}
	w := db.NewWriter()
	w.PutString(answers)
	putPPAC(res, w, r.PPAC, core.ConfigHetero)
	res.Digest = digest(w)

	var opens, firsts, answered, muts, tims, walls []float64
	ops := 0
	for len(walls) == 0 || !time.Now().Add(seconds(median(walls))).After(req.deadline) {
		m := startMeter()
		logs := runBatch(srv.addr, open, rec, false)
		s := m.stop(res)
		walls = append(walls, s.WallS)
		for i := range logs {
			lg := &logs[i]
			res.Ops += lg.ops
			ops += lg.ops
			if lg.err != nil {
				res.fail("batch %d session %d: %v", len(walls), i, lg.err)
				continue
			}
			opens = append(opens, millis(lg.open))
			firsts = append(firsts, millis(lg.firstTiming))
			answered = append(answered, millis(lg.open+lg.firstTiming))
			for _, d := range lg.mutate {
				muts = append(muts, millis(d))
			}
			for _, d := range lg.timing {
				tims = append(tims, millis(d))
			}
		}
		if got := timingDigest(logs); got != answers {
			res.fail("batch %d: timing answers differ from the warm-up batch's", len(walls))
		}
	}
	res.Layer["serve.open_p50_ms"] = percentile(opens, 50)
	res.Layer["serve.first_timing_p50_ms"] = percentile(firsts, 50)
	res.Layer["serve.first_answer_p50_ms"] = percentile(answered, 50)
	res.Layer["serve.mutate_p50_ms"] = percentile(muts, 50)
	res.Layer["serve.timing_p50_ms"] = percentile(tims, 50)
	res.Layer["serve.timing_p99_ms"] = percentile(tims, 99)
	res.Layer["serve.ops_per_sec"] = float64(ops) / sum(walls)

	if req.Traced {
		if err := timeKernels(rec, src, core.ConfigHetero, opt, snaps[0], res); err != nil {
			res.fail("kernels: %v", err)
		}
		res.Spans = rec.all()
	}
	return nil
}

// server is an in-process flowd on loopback.
type server struct {
	srv    *serve.Server
	addr   string
	served chan error
}

// startServer starts a flowd with its snapshot cache in dir and makes the
// cold OPEN that runs the flow and saves the snapshot.
func startServer(dir string, open *serve.OpenRequest) (*server, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(serve.Options{Workers: nproc, CacheDir: dir}),
		addr: lis.Addr().String(), served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(lis) }()
	cl, err := serve.Dial(s.addr)
	if err == nil {
		_, err = cl.Open(open, nil)
		cl.Close()
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("cold open: %w", err)
	}
	return s, nil
}

// stop drains the server and waits until Serve has returned.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// runBatch runs servePerConn sessions on each of nproc client connections
// at once, session i on connection i mod nproc; keep records the moves of
// each connection's first session for the offline twin.
func runBatch(addr string, open serve.OpenRequest, rec *recorder, keep bool) []sessionLog {
	logs := make([]sessionLog, servePerConn*nproc)
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			track := fmt.Sprintf("connection-%d", c)
			for i := c; i < len(logs); i += nproc {
				logs[i] = runSession(addr, open, i, keep && i < nproc, rec, track)
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// runSession runs one closed-loop session; keep records its MUTS batches
// for the offline twin. Moves are drawn from the seed and the session
// index, so a seed fixes every session's traffic.
func runSession(addr string, open serve.OpenRequest, idx int, keep bool, rec *recorder, track string) (lg sessionLog) {
	sid := rec.begin("serve.session", track, 0)
	defer rec.end(sid)
	op := func(name string, fn func() error) time.Duration {
		id := rec.begin(name, track, sid)
		t := time.Now()
		err := fn()
		d := time.Since(t)
		rec.end(id)
		lg.ops++
		if err != nil && lg.err == nil {
			lg.err = fmt.Errorf("%s: %w", name, err)
		}
		return d
	}
	rng := rand.New(rand.NewSource(open.Seed*1_000_003 + int64(idx)))

	var (
		cl   *serve.Client
		info *serve.SessionInfo
	)
	lg.open = op("serve.open", func() (err error) {
		if cl, err = serve.Dial(addr); err != nil {
			return err
		}
		info, err = cl.Open(&open, nil)
		return err
	})
	if cl == nil {
		return lg
	}
	closed := false
	defer func() {
		if !closed {
			cl.Close()
		}
	}()
	if lg.err != nil {
		return lg
	}
	lg.firstTiming = op("serve.timing.first", func() error {
		_, err := cl.Timing()
		return err
	})
	for round := 0; round < serveRounds && lg.err == nil; round++ {
		batch := make([]serve.Mutation, serveMoves)
		for k := range batch {
			batch[k] = serve.Mutation{
				ID:   int32(rng.Intn(int(info.Cells))),
				Kind: serve.MutSetLoc,
				X:    rng.Float64() * serveSpanUM,
				Y:    rng.Float64() * serveSpanUM,
			}
		}
		if keep {
			lg.batches = append(lg.batches, batch)
		}
		lg.mutate = append(lg.mutate, op("serve.mutate", func() error {
			_, err := cl.Mutate(batch)
			return err
		}))
		if lg.err != nil {
			break
		}
		lg.timing = append(lg.timing, op("serve.timing", func() error {
			t, err := cl.Timing()
			if err == nil {
				lg.final = *t
			}
			return err
		}))
	}
	if lg.err != nil {
		return lg
	}
	closed = true
	op("serve.close", cl.Close)
	return lg
}

// loadSnapshot restores the server's snapshot offline with the session
// recipe: zero stages run.
func loadSnapshot(src *netlist.Design, open serve.OpenRequest, opt core.Options, path string) (*core.Result, error) {
	opt.LoadDesign = path
	opt.StopAfter = open.Boundary
	return core.Run(context.Background(), src, core.ConfigName(open.Config), opt)
}

// checkTwin replays a session's moves on an offline sta.Timer over the
// restored snapshot and compares its final analysis with the session's
// last TIMQ answer.
func checkTwin(src *netlist.Design, open serve.OpenRequest, opt core.Options, path string, lg *sessionLog) error {
	r, err := loadSnapshot(src, open, opt, path)
	if err != nil {
		return err
	}
	cfg, err := serve.TimingConfig(open.ClockGHz, core.ConfigName(open.Config), r.Clock, nproc)
	if err != nil {
		return err
	}
	cfg.Router = route.NewCache(route.New(), r.Design)
	t, err := sta.NewTimer(r.Design, cfg)
	if err != nil {
		return err
	}
	defer t.Close()
	res, err := t.Update()
	if err != nil {
		return err
	}
	for _, batch := range lg.batches {
		for _, m := range batch {
			r.Design.Instances[m.ID].SetLoc(geom.Point{X: m.X, Y: m.Y})
		}
		if res, err = t.Update(); err != nil {
			return err
		}
	}
	if want := serve.TimingOf(res); !lg.final.SameAnalysis(want) {
		return fmt.Errorf("session answer %+v, offline twin %+v", lg.final, want)
	}
	return nil
}

// timingDigest hashes the analysis fields of every session's final timing
// answer, in session order.
func timingDigest(logs []sessionLog) string {
	w := db.NewWriter()
	for i := range logs {
		t := logs[i].final
		for _, x := range []float64{t.WNS, t.TNS, t.HoldWNS, t.HoldTNS} {
			w.PutF64(x)
		}
		w.PutI32(t.Endpoints)
		w.PutI32(t.FailingEndpoints)
		w.PutI32(t.FailingHoldEndpoints)
	}
	return digest(w)
}
