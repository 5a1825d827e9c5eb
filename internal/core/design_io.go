package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/check"
	"repro/internal/cts"
	"repro/internal/db"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/tech"
)

// This file is the flow side of the binary design database: assembling
// a designDB from mid-flow state at a save boundary, and overlaying a
// decoded one back onto a fresh flowState so the remaining stages run
// byte-identical to an uninterrupted flow (DESIGN.md §6.7).

// ErrOptionsMismatch reports a LoadDesign whose file was saved under
// different flow options. It is deliberately NOT db.ErrCorrupt: the
// file is fine, the caller's options are not.
var ErrOptionsMismatch = errors.New("core: design database was saved under different flow options — rerun with the original options or re-save")

// Core-owned section tags (the per-layer tags live in internal/db).
const (
	tagMeta   = "META"
	tagStages = "STGS"
	tagPPAC   = "PPAC"
	tagPower  = "POWR"
)

// saveBoundaries are the stage boundaries a design may be saved at and
// resumed from. They are exactly the stages present in all three flows
// whose downstream state is fully captured by the database sections;
// intermediate stages (synth, partition, eco, ...) save nothing a
// later boundary does not supersede.
var saveBoundaries = []string{StageMap, StagePlace, StageLegalize, StageCTS, StageSignoff}

func boundaryOK(stage string) bool {
	for _, b := range saveBoundaries {
		if b == stage {
			return true
		}
	}
	return false
}

// SaveBoundaries returns the stage boundaries a design database may be
// saved at — and therefore the boundaries a served session may open at.
// The returned slice is a copy, in flow order.
func SaveBoundaries() []string {
	return append([]string(nil), saveBoundaries...)
}

// parseSaveAfter splits and validates Options.SaveAfter ("" defaults to
// the post-place boundary).
func parseSaveAfter(list string) (map[string]bool, error) {
	if list == "" {
		list = StagePlace
	}
	out := make(map[string]bool)
	for _, st := range strings.Split(list, ",") {
		st = strings.TrimSpace(st)
		if st == "" {
			continue
		}
		if !boundaryOK(st) {
			return nil, fmt.Errorf("core: -save-after stage %q is not a save boundary (one of %s)",
				st, strings.Join(saveBoundaries, ", "))
		}
		out[st] = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: -save-after lists no stages")
	}
	return out, nil
}

// savePathFor returns the file path for one boundary: the configured
// path as-is for a single-boundary save, with "-<stage>" inserted
// before the extension when several boundaries save in one run.
func savePathFor(path, stage string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + stage + ext
}

// optionsFingerprint serializes every Options field that shapes the
// design trajectory. Scheduling and observation knobs — FlowWorkers,
// Events, Fault, the Save*/Load*/StopAfter paths — are deliberately
// excluded: a snapshot saved at FLOW_WORKERS=1 must resume under
// FLOW_WORKERS=8 (every kernel is byte-identical across worker counts).
func optionsFingerprint(opt Options) []byte {
	w := db.NewWriter()
	w.PutF64(opt.ClockGHz)
	w.PutF64(opt.TargetUtil)
	w.PutF64(opt.TimingAreaFrac)
	w.PutI32(int32(opt.RepairRounds))
	w.PutBool(opt.EnableTimingPartition)
	w.PutBool(opt.Enable3DCTS)
	w.PutBool(opt.EnableRepartition)
	w.PutF64(opt.Cost.FEOLFrac)
	w.PutF64(opt.Cost.BEOLFracPerLayer)
	w.PutI32(int32(opt.Cost.SignalLayers))
	w.PutF64(opt.Cost.Alpha)
	w.PutF64(opt.Cost.WaferDiameterMM)
	w.PutF64(opt.Cost.DefectDensity)
	w.PutF64(opt.Cost.WaferYield)
	w.PutF64(opt.Cost.YieldDegradation3D)
	w.PutI64(opt.Seed)
	w.PutBool(opt.TopVariant != nil)
	if v := opt.TopVariant; v != nil {
		w.PutI32(int32(v.Track))
		w.PutF64(v.VDD)
		w.PutF64(v.CellHeight)
		w.PutF64(v.AreaScale)
		w.PutF64(v.DriveRes)
		w.PutF64(v.InputCap)
		w.PutF64(v.IntrinsicDelay)
		w.PutF64(v.LeakagePower)
		w.PutF64(v.InternalEnergy)
		w.PutF64(v.WireCostScale)
	}
	w.PutBool(opt.ForceLevelShifters)
	w.PutString(string(opt.Check))
	w.PutBool(opt.CheckReportOnly)
	return w.Bytes()
}

// preassignPair is one macro/timing-partition pre-assignment in
// exportable form (instance dense ID → tier), kept sorted by ID so the
// encoding is canonical.
type preassignPair struct {
	Inst int32
	Tier tech.Tier
}

// designDB is one decoded (or about-to-be-encoded) design database:
// the sum of every section. Encode and decode share it, which is what
// makes VerifyDesignFile's decode→re-encode→compare meaningful.
type designDB struct {
	design string // source design name
	config string
	stage  string // boundary the file was saved at
	fprint []byte

	snap *netlist.Snapshot
	d    *netlist.Design // materialized from snap during decode

	fp *place.Floorplan
	ct *cts.Result
	st *sta.Snapshot

	hasChecks bool
	chkState  check.SessionState
	chkReps   []*check.Report

	metrics    []flow.StageMetric
	degraded   []string
	notes      string
	notesExtra string
	// hasPreassign distinguishes "no pre-assignment map yet" from "an
	// empty one" — the macro stage creates the map even on macro-free
	// designs, and later stages write into it unconditionally.
	hasPreassign bool
	preassign    []preassignPair
	tres         *partition.TierResult

	ppac *PPAC
	pw   *power.Breakdown
}

// putMeta writes the META section: file identity (design, config,
// saved stage) and the options fingerprint the loader validates.
func putMeta(w *db.Writer, dd *designDB) {
	w.PutString(dd.design)
	w.PutString(dd.config)
	w.PutString(dd.stage)
	w.PutBytes(dd.fprint)
}

// readMeta reads a META payload into dd.
func readMeta(r *db.Reader, dd *designDB) {
	dd.design = r.String()
	dd.config = r.String()
	dd.stage = r.String()
	dd.fprint = r.Bytes()
}

// putStages writes the STGS section: everything the flow itself owns at
// a boundary — executed stage metrics, degradations, flow notes, tier
// pre-assignments, and the partition summary.
func putStages(w *db.Writer, dd *designDB) {
	w.PutU32(uint32(len(dd.metrics)))
	for _, m := range dd.metrics {
		db.PutStageMetric(w, m)
	}
	w.PutU32(uint32(len(dd.degraded)))
	for _, r := range dd.degraded {
		w.PutString(r)
	}
	w.PutString(dd.notes)
	w.PutString(dd.notesExtra)
	w.PutBool(dd.hasPreassign)
	w.PutU32(uint32(len(dd.preassign)))
	for _, p := range dd.preassign {
		w.PutI32(p.Inst)
		w.PutU8(uint8(p.Tier))
	}
	w.PutBool(dd.tres != nil)
	if t := dd.tres; t != nil {
		w.PutI32(int32(t.Cut))
		w.PutF64(t.AreaTop)
		w.PutF64(t.AreaBottom)
		w.PutI32(int32(t.Preassigned))
		w.PutI32(int32(t.MovableCells))
	}
}

// readStages reads a STGS payload into dd, whose netlist (dd.d) the
// pre-assignments are validated against.
func readStages(r *db.Reader, dd *designDB) {
	dd.metrics = nil
	for i, n := 0, r.Count(13); r.More(i, n); i++ {
		dd.metrics = append(dd.metrics, db.ReadStageMetric(r))
	}
	dd.degraded = nil
	for i, n := 0, r.Count(4); r.More(i, n); i++ {
		dd.degraded = append(dd.degraded, r.String())
	}
	dd.notes = r.String()
	dd.notesExtra = r.String()
	dd.hasPreassign = r.Bool()
	dd.preassign = nil
	for i, n := 0, r.Count(5); r.More(i, n); i++ {
		p := preassignPair{Inst: r.I32(), Tier: tech.Tier(r.U8())}
		if p.Inst < 0 || int(p.Inst) >= len(dd.d.Instances) {
			r.Corruptf("pre-assignment references instance %d of %d", p.Inst, len(dd.d.Instances))
		}
		if p.Tier > tech.TierTop {
			r.Corruptf("pre-assignment tier %d", p.Tier)
		}
		dd.preassign = append(dd.preassign, p)
	}
	dd.tres = nil
	if r.Bool() {
		dd.tres = &partition.TierResult{
			Cut:          int(r.I32()),
			AreaTop:      r.F64(),
			AreaBottom:   r.F64(),
			Preassigned:  int(r.I32()),
			MovableCells: int(r.I32()),
		}
	}
}

// PutPPAC writes a PPAC record. Exported so that records outside the
// design database carry a PPAC in this exact encoding, and tests
// byte-compare PPAC records through it.
func PutPPAC(w *db.Writer, p *PPAC) {
	w.PutString(p.Design)
	w.PutString(string(p.Config))
	w.PutF64(p.FreqGHz)
	w.PutF64(p.FootprintMM2)
	w.PutF64(p.SiAreaMM2)
	w.PutF64(p.ChipWidthUM)
	w.PutF64(p.Density)
	w.PutF64(p.WLm)
	w.PutI32(int32(p.MIVs))
	w.PutF64(p.PowerMW)
	w.PutF64(p.LeakageMW)
	w.PutF64(p.ClockPowerMW)
	w.PutF64(p.WNS)
	w.PutF64(p.TNS)
	w.PutF64(p.EffDelayNS)
	w.PutF64(p.PDPpJ)
	w.PutF64(p.DieCostMicroC)
	w.PutF64(p.CostPerCm2)
	w.PutF64(p.PPC)
	w.PutI32(int32(p.Cells))
	w.PutI32(int32(p.CutSize))
	w.PutString(p.Refinement)
}

// ReadPPAC reads a PPAC record written by PutPPAC (the PPAC section and
// the journal's flow records).
func ReadPPAC(r *db.Reader) *PPAC {
	return &PPAC{
		Design:        r.String(),
		Config:        ConfigName(r.String()),
		FreqGHz:       r.F64(),
		FootprintMM2:  r.F64(),
		SiAreaMM2:     r.F64(),
		ChipWidthUM:   r.F64(),
		Density:       r.F64(),
		WLm:           r.F64(),
		MIVs:          int(r.I32()),
		PowerMW:       r.F64(),
		LeakageMW:     r.F64(),
		ClockPowerMW:  r.F64(),
		WNS:           r.F64(),
		TNS:           r.F64(),
		EffDelayNS:    r.F64(),
		PDPpJ:         r.F64(),
		DieCostMicroC: r.F64(),
		CostPerCm2:    r.F64(),
		PPC:           r.F64(),
		Cells:         int(r.I32()),
		CutSize:       int(r.I32()),
		Refinement:    r.String(),
	}
}

// putPower writes the POWR section: the signoff power breakdown.
func putPower(w *db.Writer, pw *power.Breakdown) {
	w.PutF64(pw.Switching)
	w.PutF64(pw.Internal)
	w.PutF64(pw.Leakage)
	w.PutF64(pw.Clock)
	w.PutF64(pw.Total)
	w.PutF64(pw.ByTier[0])
	w.PutF64(pw.ByTier[1])
	w.PutF64s(pw.NetSwitching)
	w.PutF64s(pw.PerInstance)
}

// readPower reads a POWR payload.
func readPower(r *db.Reader) *power.Breakdown {
	return &power.Breakdown{
		Switching:    r.F64(),
		Internal:     r.F64(),
		Leakage:      r.F64(),
		Clock:        r.F64(),
		Total:        r.F64(),
		ByTier:       [2]float64{r.F64(), r.F64()},
		NetSwitching: r.F64s(),
		PerInstance:  r.F64s(),
	}
}

// encodeDesignDB serializes a designDB into a complete file image, one
// frame per section in canonical order — optional sections appear
// exactly when their state exists, so encode after decode reproduces
// the original file byte for byte.
func encodeDesignDB(dd *designDB) ([]byte, error) {
	out := db.Header(db.MagicDesign)
	var err error
	frame := func(tag string, put func(w *db.Writer)) {
		if err != nil {
			return
		}
		w := db.NewWriter()
		put(w)
		out, err = db.AppendFrame(out, tag, w.Bytes())
	}
	frame(tagMeta, func(w *db.Writer) { putMeta(w, dd) })
	frame(db.TagNetlist, func(w *db.Writer) { db.PutNetlist(w, dd.snap) })
	if dd.fp != nil {
		frame(db.TagFloorplan, func(w *db.Writer) { db.PutFloorplan(w, dd.fp) })
	}
	if dd.ct != nil {
		frame(db.TagCTS, func(w *db.Writer) { db.PutCTS(w, dd.ct) })
	}
	if dd.st != nil {
		frame(db.TagSTA, func(w *db.Writer) { db.PutSTA(w, dd.st) })
	}
	if dd.hasChecks {
		frame(db.TagChecks, func(w *db.Writer) { db.PutChecks(w, dd.chkState, dd.chkReps) })
	}
	frame(tagStages, func(w *db.Writer) { putStages(w, dd) })
	if dd.ppac != nil {
		frame(tagPPAC, func(w *db.Writer) { PutPPAC(w, dd.ppac) })
	}
	if dd.pw != nil {
		frame(tagPower, func(w *db.Writer) { putPower(w, dd.pw) })
	}
	return out, err
}

// decodeDesignDB parses a design-database file into a designDB.
// Unknown tags are skipped (forward compatibility); every decode
// failure is typed db.ErrCorrupt/db.ErrVersion.
func decodeDesignDB(data []byte) (*designDB, error) {
	dd := &designDB{}
	if err := db.Decode(data, db.MagicDesign, dd.readSection); err != nil {
		return nil, err
	}
	if dd.d == nil {
		return nil, db.Corruptf("design database has no netlist section")
	}
	return dd, nil
}

// readSection decodes one section payload into dd and reports whether
// it knew the tag. NETL is replayed into a live design at once, so the
// sections after it in file order (CTSR's buffer IDs, STGS's
// pre-assignments) can resolve instances.
func (dd *designDB) readSection(tag string, r *db.Reader) bool {
	switch tag {
	case tagMeta:
		readMeta(r, dd)
	case db.TagNetlist:
		snap := db.ReadNetlist(r)
		if r.Err() != nil {
			break
		}
		d, err := netlist.ImportState(snap)
		if err != nil {
			r.Corruptf("%v", err)
			break
		}
		dd.snap, dd.d = snap, d
	case db.TagFloorplan:
		dd.fp = db.ReadFloorplan(r)
	case db.TagCTS:
		if dd.d == nil {
			r.Corruptf("clock section before netlist section")
			break
		}
		dd.ct = db.ReadCTS(r, dd.d)
	case db.TagSTA:
		dd.st = db.ReadSTA(r)
	case db.TagChecks:
		dd.hasChecks = true
		dd.chkState, dd.chkReps = db.ReadChecks(r)
	case tagStages:
		if dd.d == nil {
			r.Corruptf("stage section before netlist section")
			break
		}
		readStages(r, dd)
	case tagPPAC:
		dd.ppac = ReadPPAC(r)
	case tagPower:
		dd.pw = readPower(r)
	default:
		return false // unknown section: skip
	}
	return true
}

// buildDB assembles a designDB from the flow's live state at a save
// boundary. Only state that exists is captured; the section list
// mirrors the flow's progress (a post-place save has no clock tree, a
// pre-signoff save no PPAC).
func (s *flowState) buildDB(fc *flow.Context, stage string) *designDB {
	dd := &designDB{
		design:     s.src.Name,
		config:     string(s.cfg),
		stage:      stage,
		fprint:     optionsFingerprint(s.opt),
		snap:       s.d.ExportState(),
		d:          s.d,
		fp:         s.fp,
		ct:         s.ct,
		metrics:    fc.Metrics(),
		degraded:   fc.Degradations(),
		notes:      s.notes,
		notesExtra: s.notesExtra,
		tres:       s.tres,
		ppac:       s.ppac,
		pw:         s.pw,
	}
	if s.st != nil {
		dd.st = s.st.Snapshot()
	}
	if s.checks != nil {
		dd.hasChecks = true
		dd.chkState = s.checks.State()
		dd.chkReps = s.checks.Reports()
	}
	if s.preassign != nil {
		dd.hasPreassign = true
		for inst, t := range s.preassign { //maporder:ok collection loop; pairs sorted by Inst immediately below
			dd.preassign = append(dd.preassign, preassignPair{Inst: int32(inst.ID), Tier: t})
		}
		sort.Slice(dd.preassign, func(i, j int) bool { return dd.preassign[i].Inst < dd.preassign[j].Inst })
	}
	return dd
}

// Commit writes the design database when stage is one of the requested
// save boundaries (-save-design/-save-after).
func (s *flowState) Commit(fc *flow.Context, stage string) error {
	if !s.saveSet[stage] {
		return nil
	}
	data, err := encodeDesignDB(s.buildDB(fc, stage))
	if err != nil {
		return fmt.Errorf("core: save design after %s: %w", stage, err)
	}
	out := savePathFor(s.savePath, stage, len(s.saveSet) > 1)
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return fmt.Errorf("core: save design after %s: %w", stage, err)
	}
	return nil
}

// loadDesign restores a saved database onto the flow state and returns
// the stages remaining after the saved boundary. The restored flow's
// first act is exactly what the uninterrupted flow's next stage would
// have seen: same design object graph (dense IDs, iteration orders,
// journal revisions), same floorplan/clock/timing state, same
// check-session baseline. No extraction state is saved: the RC store
// exists only from timing-repair on, and signoff, the one boundary past
// it, leaves no stage to run.
func (s *flowState) loadDesign(fc *flow.Context, path string, stages []flow.Stage) ([]flow.Stage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load design: %w", err)
	}
	dd, err := decodeDesignDB(data)
	if err != nil {
		return nil, fmt.Errorf("core: load design %s: %w", path, err)
	}
	if dd.design != s.src.Name {
		return nil, fmt.Errorf("core: load design %s: file holds design %q, flow runs %q", path, dd.design, s.src.Name)
	}
	if dd.config != string(s.cfg) {
		return nil, fmt.Errorf("core: load design %s: file holds config %q, flow runs %q", path, dd.config, s.cfg)
	}
	if !bytes.Equal(dd.fprint, optionsFingerprint(s.opt)) {
		return nil, fmt.Errorf("core: load design %s: %w", path, ErrOptionsMismatch)
	}
	if !boundaryOK(dd.stage) {
		return nil, fmt.Errorf("core: load design %s: %w", path,
			db.Corruptf("saved stage %q is not a resume boundary", dd.stage))
	}
	idx := -1
	for i := range stages {
		if stages[i].Name == dd.stage {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("core: load design %s: saved stage %q is not part of the %s flow", path, dd.stage, s.cfg)
	}

	s.d = dd.d
	s.fp = dd.fp
	s.ct = dd.ct
	if s.fp != nil {
		// The router is created by the place stage; a resume past it
		// recreates the same (stateless, parameter-identical) router.
		s.router = route.New()
	}
	if dd.st != nil {
		st, err := sta.RestoreResult(s.d, dd.st)
		if err != nil {
			return nil, fmt.Errorf("core: load design %s: %w", path, db.Corruptf("%v", err))
		}
		s.st = st
	}
	if dd.hasChecks {
		s.checks = &check.Session{}
		s.checks.Restore(dd.chkState, dd.chkReps)
	}
	if dd.hasPreassign {
		s.preassign = make(map[*netlist.Instance]tech.Tier, len(dd.preassign))
		for _, p := range dd.preassign {
			s.preassign[s.d.Instances[p.Inst]] = p.Tier
		}
	}
	s.tres = dd.tres
	s.notes = dd.notes
	s.notesExtra = dd.notesExtra
	s.ppac = dd.ppac
	s.pw = dd.pw
	fc.SeedMetrics(dd.metrics)
	for _, reason := range dd.degraded {
		fc.MarkDegraded(reason)
		if reason == flow.DegradeFullSTA {
			s.forceFullSTA = true
		}
	}
	return stages[idx+1:], nil
}

// runFlow applies the save/load/stop options around the planned stage
// list and executes it.
func (s *flowState) runFlow(fc *flow.Context, stages []flow.Stage) (*Result, error) {
	opt := s.opt
	if opt.StopAfter != "" {
		idx := -1
		for i := range stages {
			if stages[i].Name == opt.StopAfter {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("core: -stop-after stage %q is not part of the %s flow", opt.StopAfter, s.cfg)
		}
		stages = stages[:idx+1]
	}
	if opt.SaveDesign != "" {
		saveSet, err := parseSaveAfter(opt.SaveAfter)
		if err != nil {
			return nil, err
		}
		// Sorted validation order, so the stage named by the error is
		// the same on every run.
		requested := make([]string, 0, len(saveSet))
		for st := range saveSet { //maporder:ok collection loop; sorted immediately below
			requested = append(requested, st)
		}
		sort.Strings(requested)
		for _, st := range requested {
			found := false
			for i := range stages {
				if stages[i].Name == st {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("core: -save-after stage %q is not part of the executed %s flow", st, s.cfg)
			}
		}
		s.saveSet, s.savePath = saveSet, opt.SaveDesign
	}
	if opt.LoadDesign != "" {
		var err error
		stages, err = s.loadDesign(fc, opt.LoadDesign, stages)
		if err != nil {
			return nil, err
		}
	}
	return s.execute(fc, stages)
}

// DesignFileInfo reads just the META section of a design database —
// the design, configuration, and boundary it was saved at — without
// materializing the netlist or any flow state. Inspection tooling
// (cmd/designdb) uses it to label files cheaply.
func DesignFileInfo(data []byte) (design, config, stage string, err error) {
	body, err := db.ParseHeader(data, db.MagicDesign)
	if err != nil {
		return "", "", "", err
	}
	it := db.NewFrameIter(body)
	for {
		tag, payload, err := it.Next()
		if err == io.EOF {
			return "", "", "", db.Corruptf("no META section")
		}
		if err != nil {
			return "", "", "", err
		}
		if tag != tagMeta {
			continue
		}
		var dd designDB
		r := db.NewReader(payload)
		readMeta(r, &dd)
		if err := r.Done("db: section " + tagMeta); err != nil {
			return "", "", "", err
		}
		return dd.design, dd.config, dd.stage, nil
	}
}

// VerifyDesignFile proves a design database is well-formed and
// canonically encoded: it decodes every section (replaying the netlist
// through the journal) and re-encodes the result, which must reproduce
// the input byte for byte.
func VerifyDesignFile(data []byte) error {
	dd, err := decodeDesignDB(data)
	if err != nil {
		return err
	}
	enc, err := encodeDesignDB(dd)
	if err != nil {
		return err
	}
	if !bytes.Equal(enc, data) {
		return db.Corruptf("file is not canonically encoded: re-encode differs (%d vs %d bytes)", len(enc), len(data))
	}
	return nil
}
