package eval

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
)

// Frame codecs of the evaluation journal (see checkpoint.go for its
// semantics). Records are written with the same explicit per-field
// encoders the design database uses — no reflection, and floats survive
// exactly by construction.

// Frame tags of the binary journal.
const (
	tagCkptHeader = "EHDR"
	tagCkptFmax   = "FMAX"
	tagCkptFlow   = "FLOW"
)

// ErrFarmJournal refuses a journal that holds lease frames (db.TagLease).
// Only the sharded evaluation farm (cmd/evalfarm, internal/shard) wrote
// them, and it has been removed: resume, verify and inspect refuse such
// a file rather than skip its frames, and leave it as it is.
var ErrFarmJournal = errors.New("journal holds lease frames of the removed evalfarm shard farm; start a new ppac -checkpoint journal")

func appendHeaderFrame(dst []byte, h ckptHeader) ([]byte, error) {
	w := db.NewWriter()
	w.PutI32(int32(h.Version))
	w.PutF64(h.Scale)
	w.PutI64(h.Seed)
	w.PutU32(uint32(len(h.Designs)))
	for _, d := range h.Designs {
		w.PutString(d)
	}
	w.PutU32(uint32(len(h.Configs)))
	for _, c := range h.Configs {
		w.PutString(c)
	}
	w.PutI32(int32(h.FmaxIterations))
	w.PutString(h.Check)
	return db.AppendFrame(dst, tagCkptHeader, w.Bytes())
}

func readHeaderFrame(r *db.Reader) ckptHeader {
	h := ckptHeader{Version: int(r.I32()), Scale: r.F64(), Seed: r.I64()}
	for i, n := 0, r.Count(4); r.More(i, n); i++ {
		h.Designs = append(h.Designs, r.String())
	}
	for i, n := 0, r.Count(4); r.More(i, n); i++ {
		h.Configs = append(h.Configs, r.String())
	}
	h.FmaxIterations = int(r.I32())
	h.Check = r.String()
	return h
}

// appendRecordFrame encodes one fmax or flow record as a frame.
func appendRecordFrame(dst []byte, rec any) ([]byte, error) {
	w := db.NewWriter()
	switch r := rec.(type) {
	case *ckptFmax:
		w.PutString(r.Design)
		w.PutI32(int32(r.Cells))
		w.PutF64(r.FmaxGHz)
		return db.AppendFrame(dst, tagCkptFmax, w.Bytes())
	case *FlowRecord:
		w.PutString(string(r.Design))
		w.PutString(string(r.Config))
		core.PutPPAC(w, r.PPAC)
		w.PutU32(uint32(len(r.Stages)))
		for _, m := range r.Stages {
			db.PutStageMetric(w, m)
		}
		w.PutU32(uint32(len(r.Degraded)))
		for _, s := range r.Degraded {
			w.PutString(s)
		}
		w.PutBool(r.Dive != nil)
		if r.Dive != nil {
			putDeepDive(w, r.Dive)
		}
		w.PutU32(uint32(len(r.Checks)))
		for _, rep := range r.Checks {
			db.PutCheckReport(w, rep)
		}
		return db.AppendFrame(dst, tagCkptFlow, w.Bytes())
	default:
		return nil, fmt.Errorf("unsupported journal record %T", rec)
	}
}

func readFmaxFrame(r *db.Reader) *ckptFmax {
	return &ckptFmax{Design: r.String(), Cells: int(r.I32()), FmaxGHz: r.F64()}
}

// readFlowFrame decodes a flow frame into a record marked Restored.
func readFlowFrame(r *db.Reader) *FlowRecord {
	rec := &FlowRecord{Design: designs.Name(r.String()), Config: core.ConfigName(r.String()),
		PPAC: core.ReadPPAC(r), Restored: true}
	for i, n := 0, r.Count(13); r.More(i, n); i++ {
		rec.Stages = append(rec.Stages, db.ReadStageMetric(r))
	}
	for i, n := 0, r.Count(4); r.More(i, n); i++ {
		rec.Degraded = append(rec.Degraded, r.String())
	}
	if r.Bool() {
		rec.Dive = readDeepDive(r)
	}
	for i, n := 0, r.Count(16); r.More(i, n); i++ {
		rec.Checks = append(rec.Checks, db.ReadCheckReport(r))
	}
	return rec
}

// putDeepDive writes a Table VIII deep-dive record in field order.
func putDeepDive(w *db.Writer, d *core.DeepDive) {
	w.PutF64(d.MemInLatencyPS)
	w.PutF64(d.MemOutLatencyPS)
	w.PutF64(d.MemNetSwitchUW)
	w.PutBool(d.HasMacros)
	w.PutI32(int32(d.ClockBuffers))
	w.PutI32(int32(d.TopBuffers))
	w.PutI32(int32(d.BottomBuffers))
	w.PutF64(d.ClockBufferAreaUM2)
	w.PutF64(d.ClockWLmm)
	w.PutF64(d.ClockMaxLatencyNS)
	w.PutF64(d.ClockMaxSkewNS)
	w.PutF64(d.AvgSkew100NS)
	w.PutF64(d.ClockPeriodNS)
	w.PutF64(d.SlackNS)
	w.PutF64(d.CritSkewNS)
	w.PutF64(d.SetupNS)
	w.PutF64(d.PathDelayNS)
	w.PutF64(d.WireDelayNS)
	w.PutF64(d.CellDelayNS)
	w.PutF64(d.PathWLum)
	w.PutF64(d.TopWLum)
	w.PutF64(d.BottomWLum)
	w.PutI32(int32(d.PathCells))
	w.PutI32(int32(d.PathMIVs))
	w.PutI32(int32(d.TopCells))
	w.PutI32(int32(d.BottomCells))
	w.PutF64(d.TopCellDelayNS)
	w.PutF64(d.BotCellDelayNS)
	w.PutF64(d.AvgTopDelayNS)
	w.PutF64(d.AvgBotDelayNS)
}

// readDeepDive reads a record written by putDeepDive.
func readDeepDive(r *db.Reader) *core.DeepDive {
	return &core.DeepDive{
		MemInLatencyPS:     r.F64(),
		MemOutLatencyPS:    r.F64(),
		MemNetSwitchUW:     r.F64(),
		HasMacros:          r.Bool(),
		ClockBuffers:       int(r.I32()),
		TopBuffers:         int(r.I32()),
		BottomBuffers:      int(r.I32()),
		ClockBufferAreaUM2: r.F64(),
		ClockWLmm:          r.F64(),
		ClockMaxLatencyNS:  r.F64(),
		ClockMaxSkewNS:     r.F64(),
		AvgSkew100NS:       r.F64(),
		ClockPeriodNS:      r.F64(),
		SlackNS:            r.F64(),
		CritSkewNS:         r.F64(),
		SetupNS:            r.F64(),
		PathDelayNS:        r.F64(),
		WireDelayNS:        r.F64(),
		CellDelayNS:        r.F64(),
		PathWLum:           r.F64(),
		TopWLum:            r.F64(),
		BottomWLum:         r.F64(),
		PathCells:          int(r.I32()),
		PathMIVs:           int(r.I32()),
		TopCells:           int(r.I32()),
		BottomCells:        int(r.I32()),
		TopCellDelayNS:     r.F64(),
		BotCellDelayNS:     r.F64(),
		AvgTopDelayNS:      r.F64(),
		AvgBotDelayNS:      r.F64(),
	}
}

// parseCheckpoint walks the framed journal: the header frame must come
// first and exactly once, unknown tags are skipped (except the farm's
// lease frames, refused with ErrFarmJournal), and a truncated final
// frame is tolerated (the run was killed mid-append; that record's work
// re-runs). end is the offset just past the last complete frame. A CRC
// failure on a complete frame is corruption and refuses the journal, as
// does a file without the journal magic.
func parseCheckpoint(data []byte) (hdr ckptHeader, recs []ckptRecord, end int, err error) {
	body, err := db.ParseHeader(data, db.MagicJournal)
	if err != nil {
		return hdr, nil, 0, fmt.Errorf("not an evaluation journal: %w", err)
	}
	it := db.NewFrameIter(body)
	sawHeader := false
	for {
		tag, payload, err := it.Next()
		if errors.Is(err, db.ErrTruncated) || err == io.EOF {
			break // a partial final frame is the killed append; it re-runs
		}
		if err != nil {
			return hdr, nil, 0, err
		}
		r := db.NewReader(payload)
		var rec ckptRecord
		switch tag {
		case tagCkptHeader:
			if sawHeader {
				return hdr, nil, 0, db.Corruptf("duplicate header frame")
			}
			sawHeader = true
			hdr = readHeaderFrame(r)
		case tagCkptFmax:
			rec.fmax = readFmaxFrame(r)
		case tagCkptFlow:
			rec.flow = readFlowFrame(r)
		case db.TagLease:
			return hdr, nil, 0, ErrFarmJournal
		default:
			continue // unknown frame: a future record kind; skip it
		}
		if err := r.Done("journal frame " + tag); err != nil {
			return hdr, nil, 0, err
		}
		if tag != tagCkptHeader {
			recs = append(recs, rec)
		}
	}
	if !sawHeader {
		return hdr, nil, 0, db.Corruptf("no header record — not an evaluation journal")
	}
	return hdr, recs, len(data) - len(body) + it.Offset(), nil
}

// VerifyJournal fully parses an evaluation journal: the header must come
// first and every complete frame must pass its CRC. A truncated final
// frame is legal (it is on disk whenever a run is killed mid-append), so
// verification accepts it just as resume does.
func VerifyJournal(data []byte) error {
	_, _, _, err := parseCheckpoint(data)
	return err
}

// JournalLines renders an evaluation journal as text, one line per
// record in file order: the header's suite options, then each fmax and
// flow (with its PPAC headline) record, and a last line noting a
// truncated final frame if one is present. It parses exactly as resume
// does, so it refuses what resume refuses.
func JournalLines(data []byte) ([]string, error) {
	hdr, recs, end, err := parseCheckpoint(data)
	if err != nil {
		return nil, err
	}
	lines := []string{fmt.Sprintf("header v%d scale %g seed %d fmax-iters %d check %s designs %s configs %s",
		hdr.Version, hdr.Scale, hdr.Seed, hdr.FmaxIterations, orOff(hdr.Check),
		strings.Join(hdr.Designs, ","), strings.Join(hdr.Configs, ","))}
	for _, rec := range recs {
		var line string
		switch {
		case rec.fmax != nil:
			line = fmt.Sprintf("fmax %s %d cells %g GHz", rec.fmax.Design, rec.fmax.Cells, rec.fmax.FmaxGHz)
		case rec.flow != nil:
			p := rec.flow.PPAC
			line = fmt.Sprintf("flow %s %s  %.4g GHz  %.4g mW  WNS %.4g ns  %.4g mm2  cost %.4g  PPC %.4g",
				rec.flow.Design, rec.flow.Config, p.FreqGHz, p.PowerMW, p.WNS, p.SiAreaMM2, p.DieCostMicroC, p.PPC)
		}
		lines = append(lines, line)
	}
	if end < len(data) {
		lines = append(lines, fmt.Sprintf("truncated final frame (%d bytes), dropped on the next resume", len(data)-end))
	}
	return lines, nil
}
