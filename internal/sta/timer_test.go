package sta

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
)

// requireEqualResults asserts got (a Timer's retained result) matches want
// (a fresh full analysis) bit for bit: summaries, every per-instance
// array, the endpoint table, the slack map, and the worst paths. Every
// field but the required times is checked before anything settles them;
// those are read after SlackMap has.
func requireEqualResults(t *testing.T, tag string, d *netlist.Design, got, want *Result) {
	t.Helper()
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]interface{}{tag}, args...)...)
	}
	if got.WNS != want.WNS || got.TNS != want.TNS {
		fail("WNS/TNS = %v/%v, want %v/%v", got.WNS, got.TNS, want.WNS, want.TNS)
	}
	if got.HoldWNS != want.HoldWNS || got.HoldTNS != want.HoldTNS {
		fail("hold WNS/TNS = %v/%v, want %v/%v", got.HoldWNS, got.HoldTNS, want.HoldWNS, want.HoldTNS)
	}
	if got.Endpoints != want.Endpoints || got.FailingEndpoints != want.FailingEndpoints ||
		got.FailingHoldEndpoints != want.FailingHoldEndpoints {
		fail("endpoint counts = %d/%d/%d, want %d/%d/%d",
			got.Endpoints, got.FailingEndpoints, got.FailingHoldEndpoints,
			want.Endpoints, want.FailingEndpoints, want.FailingHoldEndpoints)
	}
	for _, inst := range d.Instances {
		id := inst.ID
		if got.arrOut[id] != want.arrOut[id] {
			fail("arrOut[%s] = %v, want %v", inst.Name, got.arrOut[id], want.arrOut[id])
		}
		if got.delay[id] != want.delay[id] {
			fail("delay[%s] = %v, want %v", inst.Name, got.delay[id], want.delay[id])
		}
		if got.slewOut[id] != want.slewOut[id] {
			fail("slewOut[%s] = %v, want %v", inst.Name, got.slewOut[id], want.slewOut[id])
		}
		if got.inWire[id] != want.inWire[id] {
			fail("inWire[%s] = %v, want %v", inst.Name, got.inWire[id], want.inWire[id])
		}
		if got.pred[id] != want.pred[id] {
			fail("pred[%s] = %d, want %d", inst.Name, got.pred[id], want.pred[id])
		}
	}
	if len(got.endSlack) != len(want.endSlack) {
		fail("endpoint table length %d, want %d", len(got.endSlack), len(want.endSlack))
	}
	for i := range got.endSlack {
		g, w := got.endSlack[i], want.endSlack[i]
		if g != w {
			fail("endSlack[%d] = %+v, want %+v", i, g, w)
		}
	}
	gm, wm := got.SlackMap(), want.SlackMap()
	for i := range gm {
		if gm[i] != wm[i] {
			fail("SlackMap[%d] = %v, want %v", i, gm[i], wm[i])
		}
	}
	for _, inst := range d.Instances {
		if id := inst.ID; got.reqOut[id] != want.reqOut[id] {
			fail("reqOut[%s] = %v, want %v", inst.Name, got.reqOut[id], want.reqOut[id])
		}
	}
	gp, wp := got.CriticalPaths(3), want.CriticalPaths(3)
	if len(gp) != len(wp) {
		fail("CriticalPaths count %d, want %d", len(gp), len(wp))
	}
	for i := range gp {
		if gp[i].Slack != wp[i].Slack || gp[i].Endpoint != wp[i].Endpoint {
			fail("path %d head = (%v,%v), want (%v,%v)", i, gp[i].Slack, gp[i].Endpoint, wp[i].Slack, wp[i].Endpoint)
		}
		if len(gp[i].Stages) != len(wp[i].Stages) {
			fail("path %d has %d stages, want %d", i, len(gp[i].Stages), len(wp[i].Stages))
		}
		for j := range gp[i].Stages {
			gs, ws := gp[i].Stages[j], wp[i].Stages[j]
			if gs.Inst != ws.Inst || gs.CellDelay != ws.CellDelay || gs.WireDelay != ws.WireDelay {
				fail("path %d stage %d = %+v, want %+v", i, j, gs, ws)
			}
		}
	}
}

// mutate applies one random journaled edit to the design. bufN names
// inserted buffers uniquely across calls.
func mutate(t *testing.T, d *netlist.Design, rng *rand.Rand, bufN *int) {
	t.Helper()
	switch rng.Intn(5) {
	case 0: // upsize a combinational cell
		for tries := 0; tries < 10; tries++ {
			inst := d.Instances[rng.Intn(len(d.Instances))]
			if inst.Master.Function.IsSequential() || inst.Master.Function.IsMacro() {
				continue
			}
			if up := lib12.NextDriveUp(inst.Master); up != nil {
				if err := d.ReplaceMaster(inst, up); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	case 1: // downsize back to the weakest drive
		inst := d.Instances[rng.Intn(len(d.Instances))]
		if m := lib12.Smallest(inst.Master.Function); m != nil && m != inst.Master {
			if err := d.ReplaceMaster(inst, m); err != nil {
				t.Fatal(err)
			}
		}
	case 2: // placement move
		inst := d.Instances[rng.Intn(len(d.Instances))]
		inst.SetLoc(geom.Pt(rng.Float64()*60, rng.Float64()*40))
	case 3: // tier flip
		inst := d.Instances[rng.Intn(len(d.Instances))]
		inst.SetTier(inst.Tier.Other())
	case 4: // buffer insertion: structural, forces the exact fallback
		for tries := 0; tries < 10; tries++ {
			n := d.Nets[rng.Intn(len(d.Nets))]
			if n.IsClock || len(n.Sinks) == 0 {
				continue
			}
			moved := append([]netlist.PinRef{}, n.Sinks[:(len(n.Sinks)+1)/2]...)
			*bufN++
			if _, _, err := d.InsertBuffer(n, moved, lib12.Smallest(cell.FuncBuf), "tb"+itoa(*bufN)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
}

// runEquivalence drives a Timer (with a journal-keyed RC cache) through a
// mutation sequence, checking after every edit that its retained result is
// bit-identical to a fresh full Analyze using an uncached router — so a
// stale cache entry or a missed invalidation shows up as a mismatch.
func runEquivalence(t *testing.T, tag string, d *netlist.Design, cfg Config, mk func() route.Extractor, rng *rand.Rand, steps int) {
	t.Helper()
	tcfg := cfg
	tcfg.Router = route.NewCache(mk(), d)
	tm, err := NewTimer(d, tcfg)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}

	fcfg := cfg
	fcfg.Router = mk()

	bufN := 0
	for step := 0; step <= steps; step++ {
		if step > 0 {
			mutate(t, d, rng, &bufN)
		}
		got, err := tm.Update()
		if err != nil {
			t.Fatalf("%s step %d: timer: %v", tag, step, err)
		}
		want, err := Analyze(d, fcfg)
		if err != nil {
			t.Fatalf("%s step %d: fresh: %v", tag, step, err)
		}
		requireEqualResults(t, tag+"/step"+itoa(step), d, got, want)
	}
}

// TestTimerEquivalenceRandomDAGs fuzzes the incremental engine across many
// random topologies, with geometric extraction and ideal and non-ideal
// use of tiers.
func TestTimerEquivalenceRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		d := randomDAG(t, seed)
		rng := rand.New(rand.NewSource(seed * 7))
		// Scatter tiers before the session starts so MIV resistances are
		// live from the first update.
		for _, inst := range d.Instances {
			if rng.Intn(3) == 0 {
				inst.Tier = tech.TierTop
			}
		}
		runEquivalence(t, "dag"+itoa(int(seed)), d, DefaultConfig(0.7), func() route.Extractor { return route.New() }, rng, 10)
	}
}

// TestTimerEquivalenceBatchedEdits lets several edits pile up between
// updates — one cell moved twice, its neighbour resized, a tier flip
// undone, plus a random edit — so the revision diff must find every
// changed cell and net, not only the last one. The design is large
// enough that the rounds stay incremental.
func TestTimerEquivalenceBatchedEdits(t *testing.T) {
	d, err := designs.Generate(designs.AES, lib12, designs.Params{Scale: 0.04, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, inst := range d.Instances {
		inst.Loc = geom.Pt(rng.Float64()*80, rng.Float64()*80)
	}
	cfg := DefaultConfig(0.8)
	tcfg := cfg
	tcfg.Router = route.NewCache(route.New(), d)
	tm, err := NewTimer(d, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	pick := func() *netlist.Instance {
		for {
			inst := d.Instances[rng.Intn(len(d.Instances))]
			if !inst.Master.Function.IsSequential() && !inst.Master.Function.IsMacro() {
				return inst
			}
		}
	}
	bufN := 0
	for round := 0; round < 8; round++ {
		moved := pick()
		moved.SetLoc(geom.Pt(rng.Float64()*80, rng.Float64()*80))
		moved.SetLoc(geom.Pt(rng.Float64()*80, rng.Float64()*80))
		if out := d.OutputNet(moved); out != nil && len(out.Sinks) > 0 {
			sink := out.Sinks[0].Inst
			if up := lib12.NextDriveUp(sink.Master); up != nil {
				if err := d.ReplaceMaster(sink, up); err != nil {
					t.Fatal(err)
				}
			}
		}
		flipped := pick()
		flipped.SetTier(flipped.Tier.Other())
		flipped.SetTier(flipped.Tier.Other())
		if round%2 == 1 {
			mutate(t, d, rng, &bufN)
		}
		got, err := tm.Update()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Analyze(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, "round"+itoa(round), d, got, want)
	}
	if s := tm.Stats(); s.IncrementalUpdates == 0 {
		t.Fatalf("no batched round ran incrementally: %+v", s)
	}
}

// TestTimerEquivalenceWLM covers the wireload-model extraction used by the
// pre-placement sizing loop.
func TestTimerEquivalenceWLM(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		d := randomDAG(t, seed)
		rng := rand.New(rand.NewSource(seed))
		mk := func() route.Extractor {
			r := route.New()
			r.WLMPerSinkFF = 2.5
			return r
		}
		runEquivalence(t, "wlm"+itoa(int(seed)), d, DefaultConfig(0.9), mk, rng, 8)
	}
}

// TestTimerEquivalenceGeneratedDesigns runs the property on AES and LDPC
// scaled benchmarks — large enough that single-cell edits stay far below
// the full-recompute threshold, so the incremental frontier path is what
// gets exercised.
func TestTimerEquivalenceGeneratedDesigns(t *testing.T) {
	for _, name := range []designs.Name{designs.AES, designs.LDPC} {
		d, err := designs.Generate(name, lib12, designs.Params{Scale: 0.04, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for _, inst := range d.Instances {
			inst.Loc = geom.Pt(rng.Float64()*80, rng.Float64()*80)
		}
		runEquivalence(t, string(name), d, DefaultConfig(0.8), func() route.Extractor { return route.New() }, rng, 12)
	}
}

// TestTimerStats pins down which update kinds the engine chooses: full on
// the first pass and after structural edits, incremental for local moves,
// and full always under ForceFull; and that required times settle once,
// on the first read that needs them.
func TestTimerStats(t *testing.T) {
	d := randomDAG(t, 42)
	tm, err := NewTimer(d, DefaultConfig(0.7))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	if s := tm.Stats(); s.FullUpdates != 1 || s.IncrementalUpdates != 0 {
		t.Fatalf("first update stats = %+v, want one full", s)
	}
	nodes := tm.Stats().NodesReevaluated
	if nodes != int64(len(d.Instances)) {
		t.Errorf("full update re-evaluated %d nodes, want %d", nodes, len(d.Instances))
	}

	// One placement move: incremental, touching fewer nodes than a full
	// pass would.
	var comb *netlist.Instance
	for _, inst := range d.Instances {
		if !inst.Master.Function.IsSequential() {
			comb = inst
			break
		}
	}
	comb.SetLoc(geom.Pt(3, 3))
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	if s := tm.Stats(); s.IncrementalUpdates != 1 {
		t.Fatalf("after move stats = %+v, want one incremental", s)
	}
	// Required times wait for a read that needs them: none ran with the
	// update, one sweep runs on SlackMap, and a second read runs none.
	if s := tm.Stats(); s.RequiredSweeps != 0 || s.RequiredNodes != 0 {
		t.Fatalf("update alone stats = %+v, want no required sweep", s)
	}
	tm.Result().SlackMap()
	tm.Result().SlackMap()
	if s := tm.Stats(); s.RequiredSweeps != 1 || s.RequiredNodes == 0 {
		t.Fatalf("after SlackMap stats = %+v, want one required sweep", s)
	}

	// A buffer insertion is structural: exact fallback to full.
	n := d.OutputNet(comb)
	if _, _, err := d.InsertBuffer(n, append([]netlist.PinRef{}, n.Sinks...), lib12.Smallest(cell.FuncBuf), "sb"); err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	if s := tm.Stats(); s.FullUpdates != 2 {
		t.Fatalf("after insert stats = %+v, want a second full", s)
	}

	// ForceFull pins every update to the full path.
	cfg := DefaultConfig(0.7)
	cfg.ForceFull = true
	tf, err := NewTimer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Update(); err != nil {
		t.Fatal(err)
	}
	comb.SetLoc(geom.Pt(4, 4))
	if _, err := tf.Update(); err != nil {
		t.Fatal(err)
	}
	if s := tf.Stats(); s.FullUpdates != 2 || s.IncrementalUpdates != 0 {
		t.Fatalf("ForceFull stats = %+v, want two fulls", s)
	}
}

// TestTimerSharedCacheWithPower checks the intended wiring: one cache
// serving both the timing session and power analysis, staying warm across
// a resize and re-extracting after a move.
func TestTimerSharedCacheWithPower(t *testing.T) {
	d := randomDAG(t, 7)
	cache := route.NewCache(route.New(), d)
	cfg := DefaultConfig(0.7)
	cfg.Router = cache
	tm, err := NewTimer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	m0 := cache.Stats().Misses

	var comb *netlist.Instance
	for _, inst := range d.Instances {
		if !inst.Master.Function.IsSequential() {
			comb = inst
			break
		}
	}
	if up := lib12.NextDriveUp(comb.Master); up != nil {
		if err := d.ReplaceMaster(comb, up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != m0 {
		t.Errorf("resize caused %d extra extractions", got-m0)
	}
	comb.SetLoc(geom.Pt(9, 9))
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got == m0 {
		t.Errorf("move did not re-extract")
	}
}

// TestTimerExtractsEachMovedNetOnce pins the revision diff's extraction
// footprint: however many edits touched a net since the last update, the
// timer re-extracts it once — every non-clock net of the moved cells is
// one cache miss and none is a repeat hit.
func TestTimerExtractsEachMovedNetOnce(t *testing.T) {
	d, err := designs.Generate(designs.AES, lib12, designs.Params{Scale: 0.04, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cache := route.NewCache(route.New(), d)
	cfg := DefaultConfig(0.7)
	cfg.Router = cache
	tm, err := NewTimer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	var a *netlist.Instance
	for _, inst := range d.Instances {
		if !inst.Master.Function.IsSequential() {
			a = inst
			break
		}
	}
	b := d.OutputNet(a).Sinks[0].Inst
	a.SetLoc(geom.Pt(11, 11))
	a.SetTier(a.Tier.Other())
	b.SetLoc(geom.Pt(13, 13))
	touched := map[*netlist.Net]bool{}
	for _, inst := range []*netlist.Instance{a, b} {
		for pi := range inst.Master.Pins {
			if n := d.NetAt(inst, pi); n != nil && !n.IsClock {
				touched[n] = true
			}
		}
	}
	before := cache.Stats()
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if s := tm.Stats(); s.IncrementalUpdates != 1 {
		t.Fatalf("stats = %+v, want one incremental update", s)
	}
	if got := after.Misses - before.Misses; got != int64(len(touched)) {
		t.Errorf("re-extracted %d nets, want %d", got, len(touched))
	}
	if got := after.Hits - before.Hits; got != 0 {
		t.Errorf("%d repeat extractions of already refreshed nets", got)
	}
}

// TestTimersShareDesign runs two sessions over one design from two
// goroutines. A Timer only reads the design, so under -race this shows
// that sessions sharing a design no one mutates do not race, and both
// match a fresh analysis.
func TestTimersShareDesign(t *testing.T) {
	d := randomDAG(t, 5)
	cfg := DefaultConfig(0.7)
	var wg sync.WaitGroup
	got := make([]*Result, 2)
	errs := make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm, err := NewTimer(d, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = tm.Update()
		}()
	}
	wg.Wait()
	want, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("timer %d: %v", i, errs[i])
		}
		requireEqualResults(t, "timer"+itoa(i), d, got[i], want)
	}
}

// nudge applies one journaled edit that keeps the topology — a move, a
// resize or a tier flip — so the next Update stays incremental.
func nudge(t *testing.T, d *netlist.Design, rng *rand.Rand) {
	t.Helper()
	inst := d.Instances[rng.Intn(len(d.Instances))]
	switch rng.Intn(3) {
	case 0:
		inst.SetLoc(geom.Pt(rng.Float64()*80, rng.Float64()*80))
	case 1:
		m := lib12.NextDriveUp(inst.Master)
		if m == nil {
			m = lib12.Smallest(inst.Master.Function)
		}
		if m != nil && m != inst.Master {
			if err := d.ReplaceMaster(inst, m); err != nil {
				t.Fatal(err)
			}
		}
	case 2:
		inst.SetTier(inst.Tier.Other())
	}
}

// TestSettleAfterUnreadUpdates lets K ∈ {1, 3, 8} incremental updates
// pile up with no read in between, so the owed required times span
// several updates' work sets; then whichever of SlackMap, CellSlack and
// Snapshot reads first settles them, and all three must equal a fresh
// Analyze bit for bit. The updates themselves must run no required
// sweep, and the settle exactly one.
func TestSettleAfterUnreadUpdates(t *testing.T) {
	type session struct {
		name string
		d    *netlist.Design
	}
	var sessions []session
	for _, name := range []designs.Name{designs.AES, designs.LDPC} {
		d, err := designs.Generate(name, lib12, designs.Params{Scale: 0.04, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		for _, inst := range d.Instances {
			inst.Loc = geom.Pt(rng.Float64()*80, rng.Float64()*80)
		}
		sessions = append(sessions, session{string(name), d})
	}
	for seed := int64(30); seed < 34; seed++ {
		sessions = append(sessions, session{"dag" + itoa(int(seed)), randomDAG(t, seed)})
	}
	readers := []string{"SlackMap", "CellSlack", "Snapshot"}
	for _, ss := range sessions {
		d := ss.d
		cfg := DefaultConfig(0.8)
		tm, err := NewTimer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tm.Update(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(d.Instances))))
		for _, k := range []int{1, 3, 8} {
			for _, first := range readers {
				tag := ss.name + "/K" + itoa(k) + "/" + first
				before := tm.Stats()
				var got *Result
				for i := 0; i < k; i++ {
					nudge(t, d, rng)
					if got, err = tm.Update(); err != nil {
						t.Fatal(err)
					}
				}
				mid := tm.Stats()
				if mid.RequiredSweeps != before.RequiredSweeps {
					t.Fatalf("%s: updates ran %d required sweeps, want none", tag, mid.RequiredSweeps-before.RequiredSweeps)
				}
				owed := got.owed.Load() != nil
				want, err := Analyze(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				switch first {
				case "SlackMap":
					got.SlackMap()
				case "CellSlack":
					got.CellSlack(d.Instances[0])
				case "Snapshot":
					got.Snapshot()
				}
				wantSweeps := int64(0)
				if owed {
					wantSweeps = 1
				}
				sweeps := tm.Stats().RequiredSweeps - mid.RequiredSweeps
				if sweeps != wantSweeps {
					t.Fatalf("%s: first read ran %d required sweeps, want %d", tag, sweeps, wantSweeps)
				}
				gm, wm := got.SlackMap(), want.SlackMap()
				for i := range wm {
					if gm[i] != wm[i] {
						t.Fatalf("%s: SlackMap[%d] = %v, want %v", tag, i, gm[i], wm[i])
					}
				}
				for _, inst := range d.Instances {
					if g, w := got.CellSlack(inst), want.CellSlack(inst); g != w {
						t.Fatalf("%s: CellSlack(%s) = %v, want %v", tag, inst.Name, g, w)
					}
				}
				if gs, ws := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(gs, ws) {
					t.Fatalf("%s: Snapshot differs from a fresh analysis", tag)
				}
				if s := tm.Stats(); s.RequiredSweeps-mid.RequiredSweeps != sweeps {
					t.Fatalf("%s: later reads settled again", tag)
				}
			}
		}
		if s := tm.Stats(); s.IncrementalUpdates == 0 || s.RequiredSweeps == 0 {
			t.Fatalf("%s: stats %+v, want incremental updates and settles", ss.name, s)
		}
	}
}

// TestSettleGuard pins the settle's contract: reading required times
// right after an Update is fine, reading them after the design moved
// past that Update panics with the documented message, and updates
// that fall back to the full pass leave nothing owed.
func TestSettleGuard(t *testing.T) {
	d, err := designs.Generate(designs.AES, lib12, designs.Params{Scale: 0.04, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, inst := range d.Instances {
		inst.Loc = geom.Pt(rng.Float64()*80, rng.Float64()*80)
	}
	var comb *netlist.Instance
	for _, inst := range d.Instances {
		if !timingSource(inst) && d.OutputNet(inst) != nil {
			comb = inst
			break
		}
	}
	tm, err := NewTimer(d, DefaultConfig(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}

	// Update then read: settles without complaint.
	comb.SetLoc(geom.Pt(5, 5))
	res, err := tm.Update()
	if err != nil {
		t.Fatal(err)
	}
	if res.owed.Load() == nil {
		t.Fatal("an incremental update left nothing owed")
	}
	res.SlackMap()
	if res.owed.Load() != nil {
		t.Fatal("SlackMap left required times owed")
	}

	// Update, edit, read: the settle would mix two design states.
	for _, edit := range []struct {
		name, msg string
		do        func()
	}{
		{"move", "sta: settle after edit: instance " + comb.Name + " revision moved", func() { comb.SetLoc(geom.Pt(7, 7)) }},
		{"buffer", "sta: settle after edit: topology revision moved", func() {
			n := d.OutputNet(comb)
			if _, _, err := d.InsertBuffer(n, append([]netlist.PinRef{}, n.Sinks...), lib12.Smallest(cell.FuncBuf), "gb"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		comb.SetLoc(geom.Pt(6, 6))
		if res, err = tm.Update(); err != nil {
			t.Fatal(err)
		}
		edit.do()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, edit.msg) {
					t.Errorf("%s: panic %q, want prefix %q", edit.name, msg, edit.msg)
				}
			}()
			res.SlackMap()
		}()
		if _, err := tm.Update(); err != nil { // catch up for the next case
			t.Fatal(err)
		}
		res.SlackMap()
	}

	// Drift fallback: a master swap that turns a combinational sink into
	// a timing source, or back, keeps the topology revision but changes
	// what the compiled graph holds (order, fanout, endpoint rows). The
	// update must reach the full pass, which rebuilds the graph, owes
	// nothing and matches a fresh analysis.
	var sink *netlist.Instance
	for _, s := range d.OutputNet(comb).Sinks {
		if !timingSource(s.Inst) && d.OutputNet(s.Inst) != nil {
			sink = s.Inst
			break
		}
	}
	if sink == nil {
		t.Fatal("no combinational sink on the test cell's net")
	}
	orig := sink.Master
	macro := *orig
	macro.Function = cell.FuncMacroRAM
	for _, m := range []*cell.Master{&macro, orig} {
		if err := d.ReplaceMaster(sink, m); err != nil {
			t.Fatal(err)
		}
		full := tm.Stats().FullUpdates
		if res, err = tm.Update(); err != nil {
			t.Fatal(err)
		}
		if tm.Stats().FullUpdates != full+1 || res.owed.Load() != nil {
			t.Fatalf("drift to %v: stats %+v, owed %v; want one more full update owing nothing",
				m.Function, tm.Stats(), res.owed.Load() != nil)
		}
		want, err := Analyze(d, DefaultConfig(0.8))
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, "drift to "+m.Function.String(), d, res, want)
	}

	// ForceFull: every update is full and owes nothing.
	cfg := DefaultConfig(0.8)
	cfg.ForceFull = true
	tf, err := NewTimer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Update(); err != nil {
		t.Fatal(err)
	}
	comb.SetLoc(geom.Pt(11, 11))
	if res, err = tf.Update(); err != nil {
		t.Fatal(err)
	}
	if res.owed.Load() != nil || tf.Stats().RequiredSweeps != 0 {
		t.Fatalf("ForceFull update left required times owed (stats %+v)", tf.Stats())
	}
}

// TestConcurrentSettle has two goroutines read one owing Result — one
// through SlackMap, one through CellSlack — so the race detector sees
// the settle they contend for. Both must see the settled values, and
// the settle must run once.
func TestConcurrentSettle(t *testing.T) {
	d := randomDAG(t, 9)
	tm, err := NewTimer(d, DefaultConfig(0.7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 8; round++ {
		for i := 0; i < 3; i++ {
			nudge(t, d, rng)
		}
		res, err := tm.Update()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var slack []float64
		cells := make([]float64, len(d.Instances))
		wg.Add(2)
		go func() {
			defer wg.Done()
			slack = res.SlackMap()
		}()
		go func() {
			defer wg.Done()
			for i, inst := range d.Instances {
				cells[i] = res.CellSlack(inst)
			}
		}()
		wg.Wait()
		want, err := Analyze(d, DefaultConfig(0.7))
		if err != nil {
			t.Fatal(err)
		}
		wm := want.SlackMap()
		for i := range wm {
			if slack[i] != wm[i] || cells[i] != want.CellSlack(d.Instances[i]) {
				t.Fatalf("round %d: instance %d slack %v / cell slack %v, want %v / %v",
					round, i, slack[i], cells[i], wm[i], want.CellSlack(d.Instances[i]))
			}
		}
	}
	if s := tm.Stats(); s.RequiredSweeps > s.IncrementalUpdates {
		t.Fatalf("stats %+v: more settles than incremental updates", s)
	}
}
