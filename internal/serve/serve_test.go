package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/tech"
)

// testWorkload is the tiny session workload most tests open: small
// enough that a flow to placement runs in ~100 ms.
var testWorkload = OpenRequest{
	Design:   "ldpc",
	Config:   "2D-12T",
	Scale:    0.05,
	Seed:     1,
	ClockGHz: 1.0,
	Boundary: core.StagePlace,
}

// startServer runs a Server on an ephemeral loopback listener and
// registers an orderly shutdown with the test's cleanup.
func startServer(t *testing.T, opt Options) (*Server, string) {
	t.Helper()
	if opt.CacheDir == "" {
		opt.CacheDir = t.TempDir()
	}
	s := New(opt)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return s, lis.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// offlineTwin reproduces a session's opening state without the server:
// generate the same source netlist and run the same flow recipe to the
// boundary.
func offlineTwin(t *testing.T, req *OpenRequest) *core.Result {
	t.Helper()
	lib := cell.NewLibrary(tech.Variant12T())
	src, err := designs.Generate(designs.Name(req.Design), lib,
		designs.Params{Scale: req.Scale, Seed: req.Seed})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(req.ClockGHz)
	opt.Seed = req.Seed
	opt.StopAfter = req.Boundary
	res, err := core.Run(context.Background(), src, core.ConfigName(req.Config), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// applyOffline mirrors a wire mutation batch onto an offline design.
func applyOffline(t *testing.T, d *netlist.Design, muts []Mutation) {
	t.Helper()
	for _, m := range muts {
		inst := d.Instances[m.ID]
		switch m.Kind {
		case MutSetLoc:
			inst.SetLoc(geom.Point{X: m.X, Y: m.Y})
		case MutSetTier:
			inst.SetTier(tech.Tier(m.Tier))
		default:
			t.Fatalf("unknown mutation kind %d", m.Kind)
		}
	}
}

// analyzeOffline runs the reference analysis a session response must
// match bit-for-bit.
func analyzeOffline(t *testing.T, req *OpenRequest, res *core.Result) TimingResult {
	t.Helper()
	cfg, err := TimingConfig(req.ClockGHz, core.ConfigName(req.Config), res.Clock, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sta.Analyze(res.Design, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return TimingOf(ref)
}

// mutationRound builds a deterministic batch for round r.
func mutationRound(r, cells int) []Mutation {
	batch := make([]Mutation, 4)
	for m := range batch {
		batch[m] = Mutation{
			ID:   int32((r*37 + m*11 + 5) % cells),
			Kind: MutSetLoc,
			X:    float64(3+r*2+m) * 1.5,
			Y:    float64(7+r+m*3) * 1.25,
		}
	}
	return batch
}

// TestSessionTimingMatchesOffline is the tentpole's core contract: a
// session's incremental timing responses — across several mutation
// rounds — are bit-identical to fresh offline analyses of the same
// netlist state.
func TestSessionTimingMatchesOffline(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dialT(t, addr)
	defer cl.Close()

	req := testWorkload
	info, err := cl.Open(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cells <= 0 || info.Nets <= 0 {
		t.Fatalf("session info = %+v", info)
	}

	twin := offlineTwin(t, &req)
	if n := len(twin.Design.Instances); n != int(info.Cells) {
		t.Fatalf("offline twin has %d instances, session reports %d", n, info.Cells)
	}

	// Round 0 queries the untouched boundary state; later rounds mutate
	// first. Every response must match the offline reference exactly.
	for round := 0; round < 4; round++ {
		if round > 0 {
			muts := mutationRound(round, int(info.Cells))
			mr, err := cl.Mutate(muts)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if int(mr.Applied) != len(muts) {
				t.Fatalf("round %d: applied %d of %d", round, mr.Applied, len(muts))
			}
			applyOffline(t, twin.Design, muts)
		}
		got, err := cl.Timing()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := analyzeOffline(t, &req, twin)
		if !got.SameAnalysis(want) {
			t.Fatalf("round %d: session timing %+v != offline %+v", round, got, want)
		}
		if round > 0 && got.IncrementalUpdates == 0 {
			t.Errorf("round %d: session is not using the incremental engine: %+v", round, got)
		}
	}
}

// TestTimingOnlySessionSettlesNothing: a what-if session that only
// mutates and queries timing reads WNS/TNS and the endpoint counts, never
// required times, so its incremental updates must leave the backward
// sweep unpaid — the session-close log line reports zero settles — while
// every answer still matches the offline twin bit for bit.
func TestTimingOnlySessionSettlesNothing(t *testing.T) {
	lines := make(chan string, 64)
	_, addr := startServer(t, Options{Logf: func(format string, args ...any) {
		select {
		case lines <- fmt.Sprintf(format, args...):
		default:
		}
	}})
	cl := dialT(t, addr)
	req := testWorkload
	info, err := cl.Open(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	twin := offlineTwin(t, &req)
	for round := 0; round < 6; round++ {
		if round > 0 {
			muts := mutationRound(round, int(info.Cells))
			if _, err := cl.Mutate(muts); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			applyOffline(t, twin.Design, muts)
		}
		got, err := cl.Timing()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if want := analyzeOffline(t, &req, twin); !got.SameAnalysis(want) {
			t.Fatalf("round %d: session timing %+v != offline %+v", round, got, want)
		}
	}
	cl.Close()

	closed := regexp.MustCompile(`^serve: session-\d+ closed: \d+ full and (\d+) incremental timing updates, \d+ nodes re-evaluated, (\d+) required-time settles over (\d+) nodes$`)
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line := <-lines:
			m := closed.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			if m[1] == "0" {
				t.Fatalf("session ran no incremental update: %q", line)
			}
			if m[2] != "0" || m[3] != "0" {
				t.Fatalf("a timing-only session settled required times: %q", line)
			}
			return
		case <-deadline:
			t.Fatal("no session-close log line")
		}
	}
}

// TestHeteroSessionMatchesFlowSignoff: a Hetero-M3D session opened at
// the signoff boundary reports the flow's own sign-off timing. The
// offline twin above shares TimingConfig with the session, so only this
// comparison against the flow's Result catches the two timing models
// drifting apart.
func TestHeteroSessionMatchesFlowSignoff(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dialT(t, addr)
	defer cl.Close()

	req := OpenRequest{
		Design:   "aes",
		Config:   string(core.ConfigHetero),
		Scale:    0.05,
		Seed:     1,
		ClockGHz: 1.0,
		Boundary: core.StageSignoff,
	}
	if _, err := cl.Open(&req, nil); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Timing()
	if err != nil {
		t.Fatal(err)
	}
	flow := offlineTwin(t, &req).Timing
	if got.WNS != flow.WNS || got.TNS != flow.TNS {
		t.Fatalf("session timing WNS %v TNS %v != flow sign-off WNS %v TNS %v",
			got.WNS, got.TNS, flow.WNS, flow.TNS)
	}
}

// TestSessionSnapshotCache: a second identical OPEN must not re-run the
// flow: it forks the snapshot's timed baseline, so its first TIMQ is an
// incremental update with nothing dirty — no full update — and still
// bit-identical to the first session's answer.
func TestSessionSnapshotCache(t *testing.T) {
	_, addr := startServer(t, Options{})
	req := testWorkload

	open := func() (*Client, *SessionInfo) {
		cl := dialT(t, addr)
		info, err := cl.Open(&req, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cl, info
	}

	cl1, _ := open()
	t1, err := cl1.Timing()
	if err != nil {
		t.Fatal(err)
	}
	cl1.Close()

	start := time.Now()
	cl2, _ := open()
	defer cl2.Close()
	forkWall := time.Since(start)
	t2, err := cl2.Timing()
	if err != nil {
		t.Fatal(err)
	}
	if !t1.SameAnalysis(*t2) {
		t.Fatalf("forked session timing %+v != first session %+v", t2, t1)
	}
	if t2.FullUpdates != 0 || t2.IncrementalUpdates != 1 {
		t.Fatalf("forked session's first TIMQ ran %d full and %d incremental updates, want 0 and 1",
			t2.FullUpdates, t2.IncrementalUpdates)
	}
	// The re-open runs no stage (a zero-stage restore, then forks); it
	// should be far cheaper than a flow. Bound it loosely to catch the
	// cache silently not engaging.
	if forkWall > 5*time.Second {
		t.Errorf("cached re-open took %v — snapshot cache not engaging?", forkWall)
	}
}

// TestForkedSessionsIsolated: sessions forked from one baseline share its
// RC extractions but nothing they write. One session mutates heavily —
// batches wide enough to force full updates, tier flips — while another
// runs alongside, and every answer of each still equals its own offline
// twin; a session opened afterwards answers the untouched boundary
// state, from an incremental first update.
func TestForkedSessionsIsolated(t *testing.T) {
	_, addr := startServer(t, Options{})
	req := testWorkload
	req.Config = string(core.ConfigHetero)

	// The cold open runs the flow and saves the snapshot; the sessions
	// below all fork its baseline.
	cl0 := dialT(t, addr)
	if _, err := cl0.Open(&req, nil); err != nil {
		t.Fatal(err)
	}
	cl0.Close()

	heavyTwin, quietTwin := offlineTwin(t, &req), offlineTwin(t, &req)
	boundary := analyzeOffline(t, &req, quietTwin)
	heavy, quiet := dialT(t, addr), dialT(t, addr)
	defer heavy.Close()
	defer quiet.Close()
	info, err := heavy.Open(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quiet.Open(&req, nil); err != nil {
		t.Fatal(err)
	}
	cells := int(info.Cells)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 4; r++ {
			// Half the design and more per batch: past the incremental
			// engine's threshold, so the fork re-extracts wholesale.
			muts := make([]Mutation, 0, cells/2+8)
			for k := 0; k < cells/2+8; k++ {
				id := int32((r*131 + k*7) % cells)
				if k%5 == 0 {
					muts = append(muts, Mutation{ID: id, Kind: MutSetTier, Tier: uint8((r + k) % 2)})
				} else {
					muts = append(muts, Mutation{ID: id, Kind: MutSetLoc,
						X: float64((r*17+k)%97) * 1.75, Y: float64((r*5+k*3)%89) * 1.5})
				}
			}
			if _, err := heavy.Mutate(muts); err != nil {
				t.Errorf("heavy round %d: mutate: %v", r, err)
				return
			}
			applyOffline(t, heavyTwin.Design, muts)
			got, err := heavy.Timing()
			if err != nil {
				t.Errorf("heavy round %d: timing: %v", r, err)
				return
			}
			if want := analyzeOffline(t, &req, heavyTwin); !got.SameAnalysis(want) {
				t.Errorf("heavy round %d: timing %+v != offline %+v", r, got, want)
				return
			}
			if got.FullUpdates != int64(r+1) {
				t.Errorf("heavy round %d: %d full updates so far, want every wide batch to run one", r, got.FullUpdates)
			}
		}
	}()
	for r := 0; r < 6; r++ {
		if r > 0 {
			muts := mutationRound(r, cells)
			if _, err := quiet.Mutate(muts); err != nil {
				t.Fatalf("quiet round %d: mutate: %v", r, err)
			}
			applyOffline(t, quietTwin.Design, muts)
		}
		got, err := quiet.Timing()
		if err != nil {
			t.Fatalf("quiet round %d: timing: %v", r, err)
		}
		if want := analyzeOffline(t, &req, quietTwin); !got.SameAnalysis(want) {
			t.Fatalf("quiet round %d: timing %+v != offline %+v", r, got, want)
		}
	}
	wg.Wait()

	late := dialT(t, addr)
	defer late.Close()
	if _, err := late.Open(&req, nil); err != nil {
		t.Fatal(err)
	}
	got, err := late.Timing()
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameAnalysis(boundary) {
		t.Fatalf("session opened after the others answers %+v, boundary state is %+v", got, boundary)
	}
	if got.FullUpdates != 0 {
		t.Fatalf("late session's first TIMQ ran %d full updates, want 0", got.FullUpdates)
	}
}

// TestSessionFromUploadedDB: OPEN with an inline design-database image
// (saved offline) restores the same state as the server-side flow.
func TestSessionFromUploadedDB(t *testing.T) {
	_, addr := startServer(t, Options{})
	req := testWorkload

	// Save the boundary snapshot offline, exactly as cmd/hetero3d
	// -save-design would.
	lib := cell.NewLibrary(tech.Variant12T())
	src, err := designs.Generate(designs.Name(req.Design), lib,
		designs.Params{Scale: req.Scale, Seed: req.Seed})
	if err != nil {
		t.Fatal(err)
	}
	dbPath := t.TempDir() + "/ldpc-place.db"
	opt := core.DefaultOptions(req.ClockGHz)
	opt.Seed = req.Seed
	opt.StopAfter = req.Boundary
	opt.SaveDesign = dbPath
	opt.SaveAfter = req.Boundary
	if _, err := core.Run(context.Background(), src, core.ConfigName(req.Config), opt); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}

	up := req
	up.DB = image
	cl := dialT(t, addr)
	defer cl.Close()
	if _, err := cl.Open(&up, nil); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Timing()
	if err != nil {
		t.Fatal(err)
	}
	twin := offlineTwin(t, &req)
	want := analyzeOffline(t, &req, twin)
	if !got.SameAnalysis(want) {
		t.Fatalf("uploaded-db session timing %+v != offline %+v", got, want)
	}

	// A corrupt upload must be refused with a typed corrupt error.
	bad := req
	bad.DB = append(append([]byte(nil), image...), 0x00)
	bad.DB[20] ^= 0xff
	cl2 := dialT(t, addr)
	defer cl2.Close()
	if _, err := cl2.Open(&bad, nil); !errors.Is(err, db.ErrCorrupt) {
		t.Fatalf("corrupt upload: err = %v, want db.ErrCorrupt", err)
	}
}

// TestSessionStateMachine pins the protocol's state errors: operations
// out of order are typed ErrState, malformed parameters ErrBadRequest,
// and none of them kill the connection.
func TestSessionStateMachine(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dialT(t, addr)
	defer cl.Close()

	if _, err := cl.Timing(); !errors.Is(err, ErrState) {
		t.Fatalf("TIMQ before OPEN: err = %v, want ErrState", err)
	}
	if _, err := cl.Mutate([]Mutation{{ID: 0, Kind: MutSetLoc}}); !errors.Is(err, ErrState) {
		t.Fatalf("MUTS before OPEN: err = %v, want ErrState", err)
	}

	bad := testWorkload
	bad.Design = "no-such-design"
	if _, err := cl.Open(&bad, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad design: err = %v, want ErrBadRequest", err)
	}
	bad = testWorkload
	bad.Config = "4D-42T"
	if _, err := cl.Open(&bad, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad config: err = %v, want ErrBadRequest", err)
	}
	bad = testWorkload
	bad.Boundary = "synth"
	if _, err := cl.Open(&bad, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad boundary: err = %v, want ErrBadRequest", err)
	}
	bad = testWorkload
	bad.ClockGHz = -1
	if _, err := cl.Open(&bad, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad clock: err = %v, want ErrBadRequest", err)
	}

	// The connection survived all of that and still opens.
	req := testWorkload
	info, err := cl.Open(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open(&req, nil); !errors.Is(err, ErrState) {
		t.Fatalf("double OPEN: err = %v, want ErrState", err)
	}
	if _, err := cl.RunPPAC(&PPACRequest{Design: "ldpc", Config: "2D-12T", Scale: 0.05, Seed: 1}, nil); !errors.Is(err, ErrState) {
		t.Fatalf("PPAC on session connection: err = %v, want ErrState", err)
	}

	// Batch atomicity: one bad entry rejects the whole batch.
	before, err := cl.Timing()
	if err != nil {
		t.Fatal(err)
	}
	batch := []Mutation{
		{ID: 0, Kind: MutSetLoc, X: 999, Y: 999},
		{ID: info.Cells + 7, Kind: MutSetLoc},
	}
	if _, err := cl.Mutate(batch); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range mutation: err = %v, want ErrBadRequest", err)
	}
	after, err := cl.Timing()
	if err != nil {
		t.Fatal(err)
	}
	if !before.SameAnalysis(*after) {
		t.Fatal("rejected batch still mutated the design")
	}
	if _, err := cl.Mutate([]Mutation{{ID: 0, Kind: MutSetTier, Tier: 1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("tier mutation on a 2-D config: err = %v, want ErrBadRequest", err)
	}
	if _, err := cl.Mutate([]Mutation{{Name: "no/such/inst", Kind: MutSetLoc}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown instance name: err = %v, want ErrBadRequest", err)
	}
}

// TestSessionCapRefusal: the admission limiter refuses OPEN past the
// cap with a typed busy error, and a freed slot admits again.
func TestSessionCapRefusal(t *testing.T) {
	srv, addr := startServer(t, Options{MaxSessions: 1})
	req := testWorkload

	cl1 := dialT(t, addr)
	if _, err := cl1.Open(&req, nil); err != nil {
		t.Fatal(err)
	}
	if got := srv.ActiveSessions(); got != 1 {
		t.Fatalf("ActiveSessions = %d, want 1", got)
	}

	cl2 := dialT(t, addr)
	defer cl2.Close()
	if _, err := cl2.Open(&req, nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("OPEN past cap: err = %v, want ErrBusy", err)
	}
	// Graceful refusal: the refused connection is still serviceable.
	if err := cl2.Ping(); err != nil {
		t.Fatalf("ping after refusal: %v", err)
	}

	cl1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session slot not released after close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := cl2.Open(&req, nil); err != nil {
		t.Fatalf("OPEN after slot freed: %v", err)
	}
}

// TestPPACMatchesSuite: a served PPAC evaluation reproduces the
// evaluation suite's numbers for the same unit byte-for-byte — the
// canonical design-database encoding of both records is compared, plus
// the f_max bits.
func TestPPACMatchesSuite(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dialT(t, addr)
	defer cl.Close()

	req := &PPACRequest{
		Design:         "ldpc",
		Config:         "2D-12T",
		Scale:          0.05,
		Seed:           1,
		FmaxIterations: 3,
		Events:         true,
	}
	var events []EventKind
	got, err := cl.RunPPAC(req, func(ev *Event) { events = append(events, ev.Kind) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Error("no events streamed for an Events=true PPAC")
	}
	sawDone := false
	for _, k := range events {
		if k == EvConfigDone {
			sawDone = true
		}
	}
	if !sawDone {
		t.Errorf("event stream %v carries no EvConfigDone", events)
	}

	fmax, suitePPAC := suiteReference(t, req)
	if math.Float64bits(got.FmaxGHz) != math.Float64bits(fmax) {
		t.Fatalf("served fmax %v != suite fmax %v", got.FmaxGHz, fmax)
	}
	wGot, wWant := db.NewWriter(), db.NewWriter()
	core.PutPPAC(wGot, got.PPAC)
	core.PutPPAC(wWant, suitePPAC)
	if !bytes.Equal(wGot.Bytes(), wWant.Bytes()) {
		t.Fatalf("served PPAC differs from the evaluation suite's:\nserved %+v\nsuite  %+v", got.PPAC, suitePPAC)
	}

	// A second request for the same unit hits the fmax cache and must
	// be identical.
	again, err := cl.RunPPAC(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.FmaxGHz) != math.Float64bits(fmax) {
		t.Fatalf("cached fmax %v != %v", again.FmaxGHz, fmax)
	}
}

// TestCancelInFlight: an out-of-band CNCL aborts a running evaluation
// with a typed cancelled error and leaves the connection usable.
func TestCancelInFlight(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dialT(t, addr)
	defer cl.Close()

	req := &PPACRequest{
		Design: "aes",
		Config: "Hetero-M3D",
		Scale:  0.2,
		Seed:   1,
		Events: true,
	}
	cancelled := false
	_, err := cl.RunPPAC(req, func(ev *Event) {
		// Cancel as soon as the flow shows life.
		if !cancelled {
			cancelled = true
			if err := cl.Cancel(); err != nil {
				t.Errorf("Cancel: %v", err)
			}
		}
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled PPAC: err = %v, want ErrCancelled", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after cancel: %v", err)
	}
	// The connection is back in idle state: a session opens normally.
	w := testWorkload
	if _, err := cl.Open(&w, nil); err != nil {
		t.Fatalf("open after cancel: %v", err)
	}
}

// suiteReference runs the evaluation suite restricted to one unit and
// returns its fmax and PPAC — the offline numbers cmd/ppac prints.
func suiteReference(t *testing.T, req *PPACRequest) (float64, *core.PPAC) {
	t.Helper()
	s, err := eval.RunSuite(context.Background(), eval.SuiteOptions{
		Scale:          req.Scale,
		Seed:           req.Seed,
		Designs:        []designs.Name{designs.Name(req.Design)},
		Configs:        []core.ConfigName{core.ConfigName(req.Config)},
		FmaxIterations: int(req.FmaxIterations),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Results[designs.Name(req.Design)][core.ConfigName(req.Config)]
	if res == nil || res.PPAC == nil {
		t.Fatalf("suite produced no result for %s/%s", req.Design, req.Config)
	}
	return s.Fmax[designs.Name(req.Design)], res.PPAC
}
