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
// exactly by construction. The encoders are deterministic, so two records
// are equal exactly when their frames are byte-equal; the merge relies on
// that to refuse divergent duplicates.

// Frame tags of the binary journal.
const (
	tagCkptHeader = "EHDR"
	tagCkptFmax   = "FMAX"
	tagCkptFlow   = "FLOW"
	// tagCkptLease frames shard-coordination records (db.TagLease): the
	// lease lifecycle internal/shard's supervisor appends around the
	// worker processes' own fmax/flow records.
	tagCkptLease = db.TagLease
)

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

// appendRecordFrame encodes one fmax, flow or lease record as a frame.
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
	case *Lease:
		w.PutI32(int32(r.Shard))
		w.PutString(r.Action)
		w.PutString(r.Owner)
		w.PutI32(int32(r.Attempt))
		w.PutString(r.Reason)
		w.PutU32(uint32(len(r.Units)))
		for _, u := range r.Units {
			w.PutString(string(u.Design))
			w.PutString(string(u.Config))
		}
		return db.AppendFrame(dst, tagCkptLease, w.Bytes())
	default:
		return nil, fmt.Errorf("unsupported journal record %T", rec)
	}
}

func readLeaseFrame(r *db.Reader) *Lease {
	rec := &Lease{Shard: int(r.I32()), Action: r.String(), Owner: r.String(), Attempt: int(r.I32()), Reason: r.String()}
	if !validLeaseAction(rec.Action) {
		r.Corruptf("lease frame: invalid action %q", rec.Action)
	}
	for i, n := 0, r.Count(8); r.More(i, n); i++ {
		rec.Units = append(rec.Units, Unit{Design: designs.Name(r.String()), Config: core.ConfigName(r.String())})
	}
	return rec
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
// first and exactly once, unknown tags are skipped, and a truncated final
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
		case tagCkptLease:
			rec.lease = readLeaseFrame(r)
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
// record in file order: the header's suite options, then each fmax, flow
// (with its PPAC headline) and lease record, and a last line noting a
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
		case rec.lease != nil:
			l := rec.lease
			line = fmt.Sprintf("lease %d %s %s %d %s", l.Shard, l.Action, l.Owner, l.Attempt, l.Reason)
		}
		lines = append(lines, strings.TrimRight(line, " "))
	}
	if end < len(data) {
		lines = append(lines, fmt.Sprintf("truncated final frame (%d bytes), dropped on the next resume", len(data)-end))
	}
	return lines, nil
}
