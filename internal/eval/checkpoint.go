package eval

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
)

// The evaluation checkpoint is an append-only journal over internal/db's
// length-prefixed, CRC-checked framing under the "H3CK" magic: a header
// frame binding the file to the suite options that produced it, then one
// frame per completed unit of work (an f_max search or a finished flow).
// RunSuite appends records as flows finish and, on resume, serves
// completed work from the journal instead of re-running it.
//
// A flow frame is the suite's FlowRecord as it is: the PPAC record, the
// per-stage metrics, the degraded-mode flags, the stage-boundary check
// reports, and the Table VIII deep dive. Records are written with the
// same explicit per-field encoders the design database uses, so floats
// survive bit-exactly — which is what makes a resumed suite's Tables
// I–VIII byte-identical to an uninterrupted run. A figure flow's layout
// is not persisted; figure rendering detects restored records and says
// so instead of failing.
//
// A record is one frame, written with O_APPEND in a single Write call; a
// run killed mid-write — SIGKILL included — leaves at most one truncated
// final frame, which loading tolerates (the half-written record's work
// re-runs) and OpenCheckpoint cuts off before it appends again. Rerunning
// a killed `ppac -checkpoint` with the same options is therefore the
// whole recovery procedure.

// ckptVersion is bumped whenever the record schema changes shape
// incompatibly.
const ckptVersion = 1

type ckptHeader struct {
	Version        int
	Scale          float64
	Seed           int64
	Designs        []string
	Configs        []string
	FmaxIterations int
	Check          string
}

type ckptFmax struct {
	Design  string
	Cells   int
	FmaxGHz float64
}

type flowKey struct {
	design designs.Name
	config core.ConfigName
}

// ckptRecord is one journal entry in file order — exactly one of its
// fields is set.
type ckptRecord struct {
	fmax *ckptFmax
	flow *FlowRecord
}

// Checkpoint is an open evaluation journal: the completed work loaded
// from it when it was opened, plus an append handle for new completions
// (which only a later open serves). Safe for concurrent use by the
// suite's worker pool. A nil *Checkpoint is no journal: it holds
// nothing, and its Put methods write nothing.
type Checkpoint struct {
	path string

	mu    sync.Mutex
	f     *os.File
	fmax  map[designs.Name]ckptFmax
	flows map[flowKey]*FlowRecord
}

// headerFor derives the journal header binding a checkpoint to the
// options that produce its results.
func headerFor(opt SuiteOptions) ckptHeader {
	h := ckptHeader{
		Version:        ckptVersion,
		Scale:          opt.Scale,
		Seed:           opt.Seed,
		FmaxIterations: opt.FmaxIterations,
		Check:          string(opt.Check),
	}
	for _, d := range opt.Designs {
		h.Designs = append(h.Designs, string(d))
	}
	for _, c := range opt.Configs {
		h.Configs = append(h.Configs, string(c))
	}
	return h
}

// headerDiff reports exactly which header fields differ between a
// journal's header (file) and the options of the run trying to use it
// (run), one "field: file X, run Y" clause per mismatch. Empty means the
// headers agree.
func headerDiff(file, run ckptHeader) []string {
	var diffs []string
	add := func(field string, a, b any) {
		diffs = append(diffs, fmt.Sprintf("%s: file %v, run %v", field, a, b))
	}
	if file.Version != run.Version {
		add("format version", file.Version, run.Version)
	}
	if file.Scale != run.Scale {
		add("scale", file.Scale, run.Scale)
	}
	if file.Seed != run.Seed {
		add("seed", file.Seed, run.Seed)
	}
	if file.FmaxIterations != run.FmaxIterations {
		add("fmax iterations", file.FmaxIterations, run.FmaxIterations)
	}
	if fc, rc := orOff(file.Check), orOff(run.Check); fc != rc {
		add("check mode", fc, rc)
	}
	if !slices.Equal(file.Designs, run.Designs) {
		add("design set", strings.Join(file.Designs, ","), strings.Join(run.Designs, ","))
	}
	if !slices.Equal(file.Configs, run.Configs) {
		add("config set", strings.Join(file.Configs, ","), strings.Join(run.Configs, ","))
	}
	return diffs
}

func orOff(check string) string {
	if check == "" {
		return "off"
	}
	return check
}

// errDifferentOptions builds the option-mismatch refusal, naming exactly
// which header fields differ so the operator can tell a wrong flag from a
// wrong file.
func errDifferentOptions(diffs []string) error {
	return fmt.Errorf("journal was written under different suite options — %s — delete it or rerun with the original options",
		strings.Join(diffs, "; "))
}

// OpenCheckpoint opens (or creates) the journal at path for the given
// suite options. An existing journal written under different options is
// refused — resuming it would silently mix incompatible results — and so
// is a file that is not an evaluation journal at all, or one that holds
// lease frames (ErrFarmJournal); a refused file is left as it was. A
// truncated final frame left by a killed append is cut off before the
// first new append, so the journal stays resumable however often it is
// interrupted.
func OpenCheckpoint(path string, opt SuiteOptions) (*Checkpoint, error) {
	opt = opt.withDefaults()
	c := &Checkpoint{
		path:  path,
		fmax:  make(map[designs.Name]ckptFmax),
		flows: make(map[flowKey]*FlowRecord),
	}
	want := headerFor(opt)

	data, err := os.ReadFile(path)
	end := len(data) // offset just past the last complete frame
	switch {
	case os.IsNotExist(err) || (err == nil && len(data) == 0):
		// Fresh journal: write the header first.
	case err != nil:
		return nil, fmt.Errorf("eval: checkpoint %s: %w", path, err)
	default:
		var (
			hdr  ckptHeader
			recs []ckptRecord
		)
		if hdr, recs, end, err = parseCheckpoint(data); err != nil {
			return nil, fmt.Errorf("eval: checkpoint %s: %w", path, err)
		}
		if diffs := headerDiff(hdr, want); len(diffs) > 0 {
			return nil, fmt.Errorf("eval: checkpoint %s: %w", path, errDifferentOptions(diffs))
		}
		c.index(recs)
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eval: checkpoint %s: %w", path, err)
	}
	c.f = f
	if end < len(data) {
		// O_APPEND writes land at the new end of file.
		if err := f.Truncate(int64(end)); err != nil {
			f.Close()
			return nil, fmt.Errorf("eval: checkpoint %s: drop truncated final frame: %w", path, err)
		}
	}
	if len(data) == 0 {
		hdr, err := appendHeaderFrame(db.Header(db.MagicJournal), want)
		if err == nil {
			err = c.write(hdr)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

// index installs parsed records into the completion maps (later records
// win, mirroring append order).
func (c *Checkpoint) index(recs []ckptRecord) {
	for _, rec := range recs {
		switch {
		case rec.fmax != nil:
			c.fmax[designs.Name(rec.fmax.Design)] = *rec.fmax
		case rec.flow != nil:
			c.flows[flowKey{rec.flow.Design, rec.flow.Config}] = rec.flow
		}
	}
}

// append encodes one record and writes it with a single Write call.
// Callers hold no lock; append takes it.
func (c *Checkpoint) append(rec any) error {
	if c == nil {
		return nil
	}
	b, err := appendRecordFrame(nil, rec)
	if err != nil {
		return fmt.Errorf("eval: checkpoint %s: %w", c.path, err)
	}
	return c.write(b)
}

func (c *Checkpoint) write(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return fmt.Errorf("eval: checkpoint %s: closed", c.path)
	}
	if _, err := c.f.Write(b); err != nil {
		return fmt.Errorf("eval: checkpoint %s: %w", c.path, err)
	}
	return nil
}

// Fmax returns a design's checkpointed f_max search result, if present.
func (c *Checkpoint) Fmax(n designs.Name) (fmaxGHz float64, cells int, ok bool) {
	if c == nil {
		return 0, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.fmax[n]
	return r.FmaxGHz, r.Cells, ok
}

// PutFmax journals a completed f_max search.
func (c *Checkpoint) PutFmax(n designs.Name, cells int, fmaxGHz float64) error {
	return c.append(&ckptFmax{Design: string(n), Cells: cells, FmaxGHz: fmaxGHz})
}

// Flow returns a checkpointed flow record, if present. A record loaded
// from the file is marked Restored and has no layout.
func (c *Checkpoint) Flow(design designs.Name, cfg core.ConfigName) (*FlowRecord, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.flows[flowKey{design, cfg}]
	return rec, ok
}

// PutFlow journals a finished flow's record.
func (c *Checkpoint) PutFlow(rec *FlowRecord) error {
	return c.append(rec)
}

// Close closes the append handle; the loaded records stay readable.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
