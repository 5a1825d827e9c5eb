package core

import "repro/internal/db"

// PutDeepDive writes a Table VIII deep-dive record in field order.
// Exported for the binary evaluation journal, which persists the dive
// alongside each flow's PPAC.
func PutDeepDive(w *db.Writer, d *DeepDive) {
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

// ReadDeepDive reads a record written by PutDeepDive.
func ReadDeepDive(r *db.Reader) *DeepDive {
	return &DeepDive{
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
