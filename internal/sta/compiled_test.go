package sta

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
)

// heavierPins returns a copy of m whose input pins load 1.7× more and
// which is otherwise identical: swapping it in changes a sink's pin
// capacitance and nothing else.
func heavierPins(m *cell.Master) *cell.Master {
	h := *m
	h.Pins = slices.Clone(m.Pins)
	for i := range h.Pins {
		if h.Pins[i].Dir == cell.DirIn {
			h.Pins[i].Cap *= 1.7
		}
	}
	return &h
}

// TestTimerDifferentialEdits drives the incremental Timer through random
// batches of placement moves, tier flips, pin-capacitance-only master
// swaps and buffer insertions, checking after each batch that every
// answer equals a fresh Analyze bit for bit. The pin-capacitance swap
// moves no net revision, so only the refresh of a changed instance's
// nets keeps the compiled wire delays and loads exact.
func TestTimerDifferentialEdits(t *testing.T) {
	type workload struct {
		name string
		d    *netlist.Design
	}
	d, err := designs.Generate(designs.AES, lib12, designs.Params{Scale: 0.04, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, inst := range d.Instances {
		inst.Loc = geom.Pt(rng.Float64()*80, rng.Float64()*80)
	}
	loads := []workload{{"aes", d}}
	for seed := int64(50); seed < 54; seed++ {
		loads = append(loads, workload{"dag" + itoa(int(seed)), randomDAG(t, seed)})
	}
	for _, w := range loads {
		d := w.d
		cfg := DefaultConfig(0.8)
		tcfg := cfg
		tcfg.Router = route.NewCache(route.New(), d)
		tm, err := NewTimer(d, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		heavy := map[*cell.Master]*cell.Master{} // master → swapped-in variant and back
		rng := rand.New(rand.NewSource(int64(len(d.Instances))))
		bufN := 0
		for step := 0; step <= 24; step++ {
			for e := 0; step > 0 && e < 1+rng.Intn(3); e++ {
				inst := d.Instances[rng.Intn(len(d.Instances))]
				switch k := rng.Intn(10); {
				case k < 3:
					inst.SetLoc(geom.Pt(rng.Float64()*80, rng.Float64()*80))
				case k < 5:
					inst.SetTier(inst.Tier.Other())
				case k < 9:
					m, ok := heavy[inst.Master]
					if !ok {
						m = heavierPins(inst.Master)
						heavy[inst.Master], heavy[m] = m, inst.Master
					}
					revs := slices.Clone(d.NetRevs())
					if err := d.ReplaceMaster(inst, m); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(revs, d.NetRevs()) {
						t.Fatal("a pin-capacitance swap moved a net revision")
					}
				default:
					out := d.OutputNet(inst)
					if out == nil || out.IsClock || len(out.Sinks) == 0 {
						continue
					}
					bufN++
					moved := append([]netlist.PinRef{}, out.Sinks[:(len(out.Sinks)+1)/2]...)
					if _, _, err := d.InsertBuffer(out, moved, lib12.Smallest(cell.FuncBuf), "db"+itoa(bufN)); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, err := tm.Update()
			if err != nil {
				t.Fatal(err)
			}
			fcfg := cfg
			fcfg.Router = route.New()
			want, err := Analyze(d, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, w.name+"/step"+itoa(step), d, got, want)
		}
		if s := tm.Stats(); s.IncrementalUpdates == 0 {
			t.Fatalf("%s: no batch ran incrementally: %+v", w.name, s)
		}
	}
}

// graphRows copies a graph's order, arcs and rows for comparison.
func graphRows(g *graph) []any {
	return []any{slices.Clone(g.order), slices.Clone(g.arcOff), slices.Clone(g.arcTo),
		slices.Clone(g.fanin.Dat), slices.Clone(g.fanout.Dat), slices.Clone(g.ends.Dat), slices.Clone(g.endStart)}
}

// TestTimerForkIsolation: two forks of one fully updated base share its
// compiled graph. One fork inserts a buffer and updates — a full update
// that must build a graph of its own — while its sibling keeps editing
// and updating incrementally on the shared graph, concurrently. Both
// match fresh analyses of their designs, and the base's answers and
// graph are untouched. A later rebuild of the base leaves the sibling's
// graph alone too.
func TestTimerForkIsolation(t *testing.T) {
	d, err := designs.Generate(designs.LDPC, lib12, designs.Params{Scale: 0.04, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for _, inst := range d.Instances {
		inst.Loc = geom.Pt(rng.Float64()*80, rng.Float64()*80)
		if rng.Intn(3) == 0 {
			inst.Tier = tech.TierTop
		}
	}
	cfg := DefaultConfig(0.8)
	cfg.Latency = func(inst *netlist.Instance) float64 { return float64(inst.ID%7) * 0.003 }
	bcfg := cfg
	bcfg.Router = route.NewCache(route.New(), d)
	base, err := NewTimer(d, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Update(); err != nil {
		t.Fatal(err)
	}
	baseSnap := base.Result().Snapshot()
	baseGraph := base.g
	rows := graphRows(baseGraph)

	editor, sibling := d.Clone(), d.Clone()
	fe, fs := base.Fork(editor, 1), base.Fork(sibling, 2)
	if fe.g != base.g || fs.g != base.g {
		t.Fatal("forks do not share the base's graph")
	}
	var wg sync.WaitGroup
	var errE, errS error
	wg.Add(2)
	go func() {
		defer wg.Done()
		out := editor.OutputNet(editor.Instances[len(editor.Instances)/3])
		for out == nil || out.IsClock || len(out.Sinks) == 0 {
			out = editor.Nets[rng.Intn(len(editor.Nets))]
		}
		if _, _, errE = editor.InsertBuffer(out, append([]netlist.PinRef{}, out.Sinks...), lib12.Smallest(cell.FuncBuf), "fb"); errE != nil {
			return
		}
		editor.Instances[5].SetLoc(geom.Pt(3, 4))
		_, errE = fe.Update()
	}()
	go func() {
		defer wg.Done()
		srng := rand.New(rand.NewSource(8))
		for round := 0; round < 6 && errS == nil; round++ {
			inst := sibling.Instances[srng.Intn(len(sibling.Instances))]
			if round%3 == 2 {
				inst.SetTier(inst.Tier.Other())
			} else {
				inst.SetLoc(geom.Pt(srng.Float64()*80, srng.Float64()*80))
			}
			_, errS = fs.Update()
		}
	}()
	wg.Wait()
	if errE != nil || errS != nil {
		t.Fatalf("editor: %v, sibling: %v", errE, errS)
	}
	if s := fe.Stats(); s.FullUpdates != 1 || fe.g == baseGraph {
		t.Fatalf("editor stats %+v, own graph %v; want one full update on a graph of its own", s, fe.g != baseGraph)
	}
	if s := fs.Stats(); s.FullUpdates != 0 || fs.g != baseGraph {
		t.Fatalf("sibling stats %+v; want incremental updates on the shared graph", s)
	}
	fcfg := cfg
	fcfg.Router = route.New()
	for _, c := range []struct {
		name string
		d    *netlist.Design
		tm   *Timer
	}{{"editor", editor, fe}, {"sibling", sibling, fs}} {
		want, err := Analyze(c.d, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, c.name, c.d, c.tm.Result(), want)
	}
	if after := base.Result().Snapshot(); !reflect.DeepEqual(after, baseSnap) {
		t.Fatal("a fork moved the base's Result")
	}
	if !reflect.DeepEqual(graphRows(baseGraph), rows) {
		t.Fatal("a fork rewrote the shared graph")
	}

	// The base rebuilds after its own structural edit; the sibling keeps
	// reading the old graph and still matches a fresh analysis.
	n := d.OutputNet(d.Instances[len(d.Instances)/2])
	for n == nil || n.IsClock || len(n.Sinks) == 0 {
		n = d.Nets[rng.Intn(len(d.Nets))]
	}
	if _, _, err := d.InsertBuffer(n, append([]netlist.PinRef{}, n.Sinks...), lib12.Smallest(cell.FuncBuf), "bb"); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Update(); err != nil {
		t.Fatal(err)
	}
	if base.g == baseGraph || !reflect.DeepEqual(graphRows(baseGraph), rows) {
		t.Fatal("the base rebuilt the graph its forks share in place")
	}
	nudge(t, sibling, rand.New(rand.NewSource(99)))
	got, err := fs.Update()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(sibling, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "sibling after base rebuild", sibling, got, want)
}

// fanoutNet builds a buffer driving one net of fanout f, each sink
// buffer driving its own net into an output port, plus 2f unconnected
// filler buffers, so that the net's driver and sinks stay below half
// the design and a move of some sinks stays incremental.
func fanoutNet(t *testing.T, f int) (*netlist.Design, []*netlist.Instance) {
	t.Helper()
	d := netlist.New("fanout")
	buf := lib12.Smallest(cell.FuncBuf)
	in, _ := d.AddNet("in")
	if _, err := d.AddPort("in", cell.DirIn, in); err != nil {
		t.Fatal(err)
	}
	drv, _ := d.AddInstance("drv", buf)
	big, _ := d.AddNet("big")
	if err := d.Connect(drv, "A", in); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(drv, buf.OutputPin(), big); err != nil {
		t.Fatal(err)
	}
	sinks := make([]*netlist.Instance, f)
	for i := range sinks {
		s, _ := d.AddInstance("s"+itoa(i), buf)
		s.Loc = geom.Pt(float64(i%40), float64(i/40))
		o, _ := d.AddNet("o" + itoa(i))
		if err := d.Connect(s, "A", big); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(s, buf.OutputPin(), o); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddPort("o"+itoa(i), cell.DirOut, o); err != nil {
			t.Fatal(err)
		}
		sinks[i] = s
	}
	for i := 0; i < 2*f; i++ {
		if _, err := d.AddInstance("fill"+itoa(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	return d, sinks
}

// TestSeedWalkLinear counts the net entries the seed walk visits when N
// sinks of one net of fanout F move in one update: each net is walked
// once, so the count is O(N + F) — F+1 entries for the shared net and
// one per sink's own net — where walking the shared net once per
// changed sink would cost N × (F+1). When the changed instances alone
// exceed half the design, the walk is skipped for the full update.
func TestSeedWalkLinear(t *testing.T) {
	const f, nMoved = 1200, 500
	d, sinks := fanoutNet(t, f)
	tm, err := NewTimer(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	for i, s := range sinks[:nMoved] {
		s.SetLoc(geom.Pt(float64(i%40)+0.5, float64(i/40)))
	}
	before := tm.netEntries
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	if s := tm.Stats(); s.IncrementalUpdates != 1 {
		t.Fatalf("stats %+v, want the update incremental", s)
	}
	if got, want := tm.netEntries-before, int64(f+1+nMoved); got != want {
		t.Fatalf("seed walk visited %d net entries, want %d (F+1+N)", got, want)
	}
	want, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "fanout", d, tm.Result(), want)

	for i, inst := range d.Instances {
		inst.SetLoc(geom.Pt(float64(i%40), float64(i/40)+0.5))
	}
	before, full := tm.netEntries, tm.Stats().FullUpdates
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	if tm.netEntries != before || tm.Stats().FullUpdates != full+1 {
		t.Fatalf("a wide change walked %d net entries and ran %d full updates, want 0 and 1",
			tm.netEntries-before, tm.Stats().FullUpdates-full)
	}
}
