package eval

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
)

// Shard-journal merge. Every shard of a distributed evaluation writes an
// ordinary checkpoint journal restricted to its units; MergeCheckpoints
// folds them back into one journal whose record order is canonical —
// f_max records in the suite's design order, then flow records
// design-major in the suite's config order — so the merged bytes are a
// pure function of the options and the result values, independent of
// which shard ran what, in which order, or how many times it was
// restarted. A suite resumed from the merged journal therefore renders
// Tables I–VIII byte-identical to a single-process run.
//
// Duplicates are legal but must agree: two shards that both computed a
// design's f_max (each needed it as its iso-performance target) must
// have produced identical records, because every record is a pure
// function of (design, config, scale, seed). A divergent duplicate can
// only mean corruption or a nondeterminism bug, so the merge refuses it
// loudly instead of picking a winner. Equality is byte equality of the
// records' frame encodings, which are deterministic.

// errDivergent builds the refuse-don't-pick error for mismatched
// duplicate records.
func errDivergent(what string) error {
	return fmt.Errorf("eval: merge: divergent duplicate %s across shard journals — identical inputs must produce identical records; this is corruption or a determinism bug, not a merge conflict to resolve", what)
}

// MergeCheckpoints merges the shard journals at srcs into one journal at
// dst. Every source must parse cleanly and carry the exact header derived
// from opt; lease records are dropped (coordination history stays in the
// supervisor's own journal), and duplicate work records must be
// identical. The merged file is written atomically (temp file + rename)
// so a crash mid-merge never leaves a half-written journal behind.
func MergeCheckpoints(dst string, opt SuiteOptions, srcs ...string) error {
	opt = opt.withDefaults()
	want := headerFor(opt)

	// Each work record is kept as its encoded frame, keyed by what it
	// completes (an f_max search keys with an empty config); a duplicate
	// must encode to the same bytes.
	frames := make(map[flowKey][]byte)
	keep := func(k flowKey, rec any, what string) error {
		b, err := appendRecordFrame(nil, rec)
		if err != nil {
			return fmt.Errorf("eval: merge: %w", err)
		}
		if prev, ok := frames[k]; ok && !bytes.Equal(prev, b) {
			return errDivergent(what)
		}
		frames[k] = b
		return nil
	}
	for _, src := range srcs {
		data, err := os.ReadFile(src)
		if err != nil {
			return fmt.Errorf("eval: merge %s: %w", src, err)
		}
		hdr, recs, _, err := parseCheckpoint(data)
		if err != nil {
			return fmt.Errorf("eval: merge %s: %w", src, err)
		}
		if diffs := headerDiff(hdr, want); len(diffs) > 0 {
			return fmt.Errorf("eval: merge %s: %w", src, errDifferentOptions(diffs))
		}
		for _, rec := range recs {
			switch {
			case rec.fmax != nil:
				err = keep(flowKey{design: designs.Name(rec.fmax.Design)}, rec.fmax,
					"fmax record for "+rec.fmax.Design)
			case rec.flow != nil:
				err = keep(flowKey{designs.Name(rec.flow.Design), core.ConfigName(rec.flow.Config)}, rec.flow,
					"flow record for "+rec.flow.Design+"/"+rec.flow.Config)
			}
			// Lease records do not merge into the result set.
			if err != nil {
				return err
			}
		}
	}

	// Canonical order: fmax in design order, then flows design-major in
	// config order — the matrix order, restricted to what is present.
	out, err := appendHeaderFrame(db.Header(db.MagicJournal), want)
	if err != nil {
		return fmt.Errorf("eval: merge: %w", err)
	}
	for _, d := range opt.Designs {
		out = append(out, frames[flowKey{design: d}]...)
	}
	for _, d := range opt.Designs {
		for _, c := range opt.Configs {
			out = append(out, frames[flowKey{d, c}]...)
		}
	}

	tmp, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".tmp-*")
	if err != nil {
		return fmt.Errorf("eval: merge: %w", err)
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("eval: merge: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("eval: merge: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("eval: merge: %w", err)
	}
	return nil
}

// JournalStatus reads the journal at path without taking an append
// handle and reports which of the run's units are complete. The header
// must match opt exactly (same refusal as OpenCheckpoint); the shard
// filter in opt.Units restricts which cells count (empty = the full
// matrix). missingFmax lists filtered designs whose f_max search has not
// been journaled. A missing file reports everything missing — a fresh
// shard looks exactly like an empty journal.
func JournalStatus(path string, opt SuiteOptions) (done, missing []Unit, missingFmax []designs.Name, err error) {
	opt = opt.withDefaults()
	fmaxSeen := make(map[designs.Name]bool)
	flowSeen := make(map[flowKey]bool)

	data, rerr := os.ReadFile(path)
	switch {
	case os.IsNotExist(rerr) || (rerr == nil && len(data) == 0):
		// Fresh journal: nothing done.
	case rerr != nil:
		return nil, nil, nil, fmt.Errorf("eval: journal %s: %w", path, rerr)
	default:
		hdr, recs, _, perr := parseCheckpoint(data)
		if perr != nil {
			return nil, nil, nil, fmt.Errorf("eval: journal %s: %w", path, perr)
		}
		if diffs := headerDiff(hdr, headerFor(opt)); len(diffs) > 0 {
			return nil, nil, nil, fmt.Errorf("eval: journal %s: %w", path, errDifferentOptions(diffs))
		}
		for _, rec := range recs {
			switch {
			case rec.fmax != nil:
				fmaxSeen[designs.Name(rec.fmax.Design)] = true
			case rec.flow != nil:
				flowSeen[flowKey{designs.Name(rec.flow.Design), core.ConfigName(rec.flow.Config)}] = true
			}
		}
	}

	for _, d := range opt.Designs {
		if !opt.wantDesign(d) {
			continue
		}
		if !fmaxSeen[d] {
			missingFmax = append(missingFmax, d)
		}
		for _, c := range opt.Configs {
			if !opt.wantUnit(d, c) {
				continue
			}
			u := Unit{Design: d, Config: c}
			if flowSeen[flowKey{d, c}] {
				done = append(done, u)
			} else {
				missing = append(missing, u)
			}
		}
	}
	return done, missing, missingFmax, nil
}
