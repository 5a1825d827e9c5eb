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

func readHeaderFrame(r *db.Reader) (ckptHeader, error) {
	var h ckptHeader
	v, err := r.I32()
	if err != nil {
		return h, err
	}
	h.Version = int(v)
	if h.Scale, err = r.F64(); err != nil {
		return h, err
	}
	if h.Seed, err = r.I64(); err != nil {
		return h, err
	}
	nd, err := r.Count(4)
	if err != nil {
		return h, err
	}
	for i := 0; i < nd; i++ {
		s, err := r.String()
		if err != nil {
			return h, err
		}
		h.Designs = append(h.Designs, s)
	}
	nc, err := r.Count(4)
	if err != nil {
		return h, err
	}
	for i := 0; i < nc; i++ {
		s, err := r.String()
		if err != nil {
			return h, err
		}
		h.Configs = append(h.Configs, s)
	}
	if v, err = r.I32(); err != nil {
		return h, err
	}
	h.FmaxIterations = int(v)
	h.Check, err = r.String()
	return h, err
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

func readLeaseFrame(r *db.Reader) (*Lease, error) {
	rec := &Lease{}
	v, err := r.I32()
	if err != nil {
		return nil, err
	}
	rec.Shard = int(v)
	if rec.Action, err = r.String(); err != nil {
		return nil, err
	}
	if !validLeaseAction(rec.Action) {
		return nil, db.Corruptf("lease frame: invalid action %q", rec.Action)
	}
	if rec.Owner, err = r.String(); err != nil {
		return nil, err
	}
	if v, err = r.I32(); err != nil {
		return nil, err
	}
	rec.Attempt = int(v)
	if rec.Reason, err = r.String(); err != nil {
		return nil, err
	}
	nu, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nu; i++ {
		var u Unit
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		u.Design = designs.Name(s)
		if s, err = r.String(); err != nil {
			return nil, err
		}
		u.Config = core.ConfigName(s)
		rec.Units = append(rec.Units, u)
	}
	return rec, nil
}

func readFmaxFrame(r *db.Reader) (*ckptFmax, error) {
	rec := &ckptFmax{}
	var err error
	if rec.Design, err = r.String(); err != nil {
		return nil, err
	}
	v, err := r.I32()
	if err != nil {
		return nil, err
	}
	rec.Cells = int(v)
	rec.FmaxGHz, err = r.F64()
	return rec, err
}

func readFlowFrame(r *db.Reader) (*ckptFlow, error) {
	rec := &ckptFlow{}
	var err error
	if rec.Design, err = r.String(); err != nil {
		return nil, err
	}
	if rec.Config, err = r.String(); err != nil {
		return nil, err
	}
	if rec.PPAC, err = core.ReadPPAC(r); err != nil {
		return nil, err
	}
	ns, err := r.Count(13)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ns; i++ {
		m, err := db.ReadStageMetric(r)
		if err != nil {
			return nil, err
		}
		rec.Stages = append(rec.Stages, m)
	}
	ndg, err := r.Count(4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ndg; i++ {
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		rec.Degraded = append(rec.Degraded, s)
	}
	hasDive, err := r.Bool()
	if err != nil {
		return nil, err
	}
	if hasDive {
		if rec.Dive, err = core.ReadDeepDive(r); err != nil {
			return nil, err
		}
	}
	nch, err := r.Count(16)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nch; i++ {
		rep, err := db.ReadCheckReport(r)
		if err != nil {
			return nil, err
		}
		rec.Checks = append(rec.Checks, rep)
	}
	return rec, nil
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
			if hdr, err = readHeaderFrame(r); err != nil {
				return hdr, nil, 0, err
			}
			continue
		case tagCkptFmax:
			rec.fmax, err = readFmaxFrame(r)
		case tagCkptFlow:
			rec.flow, err = readFlowFrame(r)
		case tagCkptLease:
			rec.lease, err = readLeaseFrame(r)
		default:
			continue // unknown frame: a future record kind; skip it
		}
		if err != nil {
			return hdr, nil, 0, err
		}
		recs = append(recs, rec)
	}
	if !sawHeader {
		return hdr, nil, 0, fmt.Errorf("no header record — not an evaluation journal")
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
