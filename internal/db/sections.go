package db

import (
	"sort"

	"repro/internal/check"
	"repro/internal/cts"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/sta"
)

// Section tags of the per-layer design-file sections. Core adds its own
// flow-owned tags (metadata, stage metrics, PPAC, power) on top of
// these. Each section is a PutX/ReadX codec pair over one payload.
const (
	TagFloorplan = "PLAC"
	TagCTS       = "CTSR"
	TagSTA       = "STAR"
	TagChecks    = "CHKS"
)

// PutFloorplan writes the PLAC section: the die/core outline and
// placement parameters.
func PutFloorplan(w *Writer, fp *place.Floorplan) {
	w.PutRect(fp.Outline)
	w.PutRect(fp.Core)
	w.PutF64(fp.TargetUtil)
	w.PutI32(int32(fp.Tiers))
}

// ReadFloorplan reads a PLAC payload.
func ReadFloorplan(r *Reader) *place.Floorplan {
	fp := &place.Floorplan{Outline: r.Rect(), Core: r.Rect(), TargetUtil: r.F64(), Tiers: int(r.I32())}
	if fp.Tiers < 1 || fp.Tiers > 2 {
		r.Corruptf("floorplan has %d tiers", fp.Tiers)
	}
	return fp
}

// PutCTS writes the CTSR section: the clock-tree result with buffer
// references flattened to dense instance IDs and the latency map as
// sorted (id, latency) pairs — the map's iteration order never touches
// the wire, so encoding stays canonical.
func PutCTS(w *Writer, ct *cts.Result) {
	w.PutU32(uint32(len(ct.Buffers)))
	for _, b := range ct.Buffers {
		w.PutI32(int32(b.ID))
	}
	ids := make([]int, 0, len(ct.Latency))
	for id := range ct.Latency {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.PutU32(uint32(len(ids)))
	for _, id := range ids {
		w.PutI32(int32(id))
		w.PutF64(ct.Latency[id])
	}
	w.PutF64(ct.MaxLatency)
	w.PutF64(ct.MinLatency)
	w.PutF64(ct.MaxSkew)
	w.PutF64(ct.BufferArea)
	w.PutF64(ct.Wirelength)
	w.PutI32(int32(ct.CountByTier[0]))
	w.PutI32(int32(ct.CountByTier[1]))
	w.PutI32(int32(ct.Levels))
}

// ReadCTS reads a CTSR payload, resolving buffer IDs against the
// restored design d. An out-of-range ID stops the decode (nil result).
func ReadCTS(r *Reader, d *netlist.Design) *cts.Result {
	ct := &cts.Result{}
	for i, n := 0, r.Count(4); r.More(i, n); i++ {
		id := r.I32()
		if id < 0 || int(id) >= len(d.Instances) {
			r.Corruptf("clock buffer references instance %d of %d", id, len(d.Instances))
			return nil
		}
		ct.Buffers = append(ct.Buffers, d.Instances[id])
	}
	nl := r.Count(12)
	ct.Latency = make(map[int]float64, nl)
	for i := 0; r.More(i, nl); i++ {
		id := r.I32()
		if id < 0 || int(id) >= len(d.Instances) {
			r.Corruptf("clock latency references instance %d of %d", id, len(d.Instances))
			return nil
		}
		ct.Latency[int(id)] = r.F64()
	}
	ct.MaxLatency = r.F64()
	ct.MinLatency = r.F64()
	ct.MaxSkew = r.F64()
	ct.BufferArea = r.F64()
	ct.Wirelength = r.F64()
	ct.CountByTier[0] = int(r.I32())
	ct.CountByTier[1] = int(r.I32())
	ct.Levels = int(r.I32())
	return ct
}

// PutSTA writes the STAR section: a full sta.Snapshot — summary
// numbers, per-instance arrival/required/delay/slew/wire arrays,
// predecessors, and the endpoint slack table.
func PutSTA(w *Writer, sn *sta.Snapshot) {
	w.PutF64(sn.Period)
	w.PutF64(sn.WNS)
	w.PutF64(sn.TNS)
	w.PutF64(sn.HoldWNS)
	w.PutF64(sn.HoldTNS)
	w.PutI32(int32(sn.Endpoints))
	w.PutI32(int32(sn.FailingEndpoints))
	w.PutI32(int32(sn.FailingHoldEndpoints))
	w.PutF64s(sn.ArrOut)
	w.PutF64s(sn.ReqOut)
	w.PutF64s(sn.Delay)
	w.PutF64s(sn.SlewOut)
	w.PutF64s(sn.InWire)
	w.PutI32s(sn.Pred)
	w.PutU32(uint32(len(sn.Ends)))
	for _, e := range sn.Ends {
		w.PutI32(e.Inst)
		w.PutI32(e.Port)
		w.PutI32(e.From)
		w.PutF64(e.Slack)
		w.PutF64(e.Hold)
	}
}

// ReadSTA reads a STAR payload.
func ReadSTA(r *Reader) *sta.Snapshot {
	sn := &sta.Snapshot{
		Period:               r.F64(),
		WNS:                  r.F64(),
		TNS:                  r.F64(),
		HoldWNS:              r.F64(),
		HoldTNS:              r.F64(),
		Endpoints:            int(r.I32()),
		FailingEndpoints:     int(r.I32()),
		FailingHoldEndpoints: int(r.I32()),
		ArrOut:               r.F64s(),
		ReqOut:               r.F64s(),
		Delay:                r.F64s(),
		SlewOut:              r.F64s(),
		InWire:               r.F64s(),
		Pred:                 r.I32s(),
	}
	for i, n := 0, r.Count(28); r.More(i, n); i++ {
		sn.Ends = append(sn.Ends, sta.EndpointSnap{
			Inst: r.I32(), Port: r.I32(), From: r.I32(), Slack: r.F64(), Hold: r.F64(),
		})
	}
	return sn
}

// PutCheckReport writes one design-integrity report.
func PutCheckReport(w *Writer, rep *check.Report) {
	w.PutString(rep.Design)
	w.PutString(rep.Stage)
	w.PutU32(uint32(len(rep.Stats)))
	for _, st := range rep.Stats {
		w.PutString(st.ID)
		w.PutString(st.Title)
		w.PutU8(uint8(st.Severity))
		w.PutI32(int32(st.Checked))
		w.PutI32(int32(st.Violations))
	}
	w.PutU32(uint32(len(rep.Violations)))
	for _, v := range rep.Violations {
		w.PutString(v.Rule)
		w.PutU8(uint8(v.Severity))
		w.PutString(v.Obj)
		w.PutString(v.Msg)
	}
}

// ReadCheckReport reads one design-integrity report.
func ReadCheckReport(r *Reader) *check.Report {
	rep := &check.Report{Design: r.String(), Stage: r.String()}
	severity := func() check.Severity {
		v := check.Severity(r.U8())
		if v > check.Error {
			r.Corruptf("severity byte %d", v)
		}
		return v
	}
	for i, n := 0, r.Count(17); r.More(i, n); i++ {
		rep.Stats = append(rep.Stats, check.RuleStat{
			ID:         r.String(),
			Title:      r.String(),
			Severity:   severity(),
			Checked:    int(r.I32()),
			Violations: int(r.I32()),
		})
	}
	for i, n := 0, r.Count(13); r.More(i, n); i++ {
		rep.Violations = append(rep.Violations, check.Violation{
			Rule: r.String(), Severity: severity(), Obj: r.String(), Msg: r.String(),
		})
	}
	return rep
}

// PutChecks writes the CHKS section: the check session's stage-boundary
// context (the ENG-003 monotonicity baseline) plus every boundary
// report produced so far, so a resumed flow reports and enforces
// exactly what a continuous one would.
func PutChecks(w *Writer, st check.SessionState, reps []*check.Report) {
	w.PutBool(st.Seen)
	w.PutString(st.PrevStage)
	w.PutU64(st.PrevTopo)
	w.PutI32(int32(st.PrevInsts))
	w.PutI32(int32(st.PrevNets))
	w.PutU32(uint32(len(reps)))
	for _, rep := range reps {
		PutCheckReport(w, rep)
	}
}

// ReadChecks reads a CHKS payload.
func ReadChecks(r *Reader) (check.SessionState, []*check.Report) {
	st := check.SessionState{
		Seen:      r.Bool(),
		PrevStage: r.String(),
		PrevTopo:  r.U64(),
		PrevInsts: int(r.I32()),
		PrevNets:  int(r.I32()),
	}
	var reps []*check.Report
	for i, n := 0, r.Count(16); r.More(i, n); i++ {
		reps = append(reps, ReadCheckReport(r))
	}
	return st, reps
}
