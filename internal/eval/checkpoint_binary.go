package eval

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/db"
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
	case *ckptFlow:
		w.PutString(r.Design)
		w.PutString(r.Config)
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
			core.PutDeepDive(w, r.Dive)
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

func readFlowFrame(r *db.Reader) *ckptFlow {
	rec := &ckptFlow{Design: r.String(), Config: r.String(), PPAC: core.ReadPPAC(r)}
	for i, n := 0, r.Count(13); r.More(i, n); i++ {
		rec.Stages = append(rec.Stages, db.ReadStageMetric(r))
	}
	for i, n := 0, r.Count(4); r.More(i, n); i++ {
		rec.Degraded = append(rec.Degraded, r.String())
	}
	if r.Bool() {
		rec.Dive = core.ReadDeepDive(r)
	}
	for i, n := 0, r.Count(16); r.More(i, n); i++ {
		rec.Checks = append(rec.Checks, db.ReadCheckReport(r))
	}
	return rec
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
