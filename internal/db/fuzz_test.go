package db

import (
	"errors"
	"testing"

	"repro/internal/check"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/sta"
)

// fuzzSection decodes every section tag the database format defines,
// so arbitrary input exercises the full decode surface. CTSR resolves
// against an empty design, so only its refusal paths are reachable
// here; FuzzDesignFile in internal/core drives it against a real one.
func fuzzSection(tag string, r *Reader) bool {
	switch tag {
	case TagNetlist:
		ReadNetlist(r)
	case TagFloorplan:
		ReadFloorplan(r)
	case TagCTS:
		ReadCTS(r, &netlist.Design{})
	case TagSTA:
		ReadSTA(r)
	case TagChecks:
		ReadChecks(r)
	case "PRIM":
		readPrim(r)
	default:
		return false
	}
	return true
}

// FuzzDBDecode feeds arbitrary bytes through the frame walker and every
// section decoder. The contract under test: the decoder never panics,
// and every failure is typed ErrCorrupt (or its ErrTruncated subclass)
// or ErrVersion — never an untyped error that a caller could not
// classify.
func FuzzDBDecode(f *testing.F) {
	// Seed with well-formed files of each section so mutations start
	// from deep in the format rather than failing at the magic.
	fp := &place.Floorplan{TargetUtil: 0.7, Tiers: 2}
	snap := &sta.Snapshot{
		Period: 2, ArrOut: []float64{1}, ReqOut: []float64{2}, Delay: []float64{0.5},
		SlewOut: []float64{0.1}, InWire: []float64{0}, Pred: []int32{-1},
		Ends: []sta.EndpointSnap{{Inst: 0, Port: -1, From: -1, Slack: 1, Hold: 0.5}},
	}
	prim := &primSection{u8: 1, str: "seed", f64s: []float64{1, 2}, i32s: []int32{-1}}
	chk := check.SessionState{Seen: true, PrevStage: "cts", PrevTopo: 7, PrevInsts: 3, PrevNets: 2}
	type sec struct {
		tag string
		put func(w *Writer)
	}
	secs := []sec{
		{"PRIM", func(w *Writer) { putPrim(w, prim) }},
		{TagFloorplan, func(w *Writer) { PutFloorplan(w, fp) }},
		{TagSTA, func(w *Writer) { PutSTA(w, snap) }},
		// ROUT is a retired section (extraction-cache entries): readers
		// skip it as unknown, which keeps files that hold it loadable.
		{"ROUT", func(w *Writer) { w.PutU32(0) }},
		{TagChecks, func(w *Writer) { PutChecks(w, chk, nil) }},
	}
	all := Header(MagicDesign)
	for _, s := range secs {
		w := NewWriter()
		s.put(w)
		one, err := AppendFrame(Header(MagicDesign), s.tag, w.Bytes())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(one)
		all = append(all, one[8:]...)
	}
	f.Add(all)
	f.Add([]byte(MagicDesign))
	f.Add([]byte(MagicJournal))
	f.Add(Header(MagicJournal))

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := List(data); err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("List: untyped error %v", err)
		}
		for _, magic := range []string{MagicDesign, MagicJournal} {
			err := Decode(data, magic, fuzzSection)
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode(%s): untyped error %v", magic, err)
			}
		}
	})
}
