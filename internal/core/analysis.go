package core

import (
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/tech"
)

// DeepDive holds the Table VIII metrics: memory-interconnect, clock
// network, and critical-path breakdowns of one implementation.
type DeepDive struct {
	// --- Memory interconnects (RMS over macro nets; ps / µW) ---
	MemInLatencyPS  float64
	MemOutLatencyPS float64
	MemNetSwitchUW  float64
	HasMacros       bool

	// --- Clock network ---
	ClockBuffers       int
	TopBuffers         int
	BottomBuffers      int
	ClockBufferAreaUM2 float64
	ClockWLmm          float64
	ClockMaxLatencyNS  float64
	ClockMaxSkewNS     float64
	// AvgSkew100NS is the mean launch→capture clock skew over the 100
	// worst paths — the paper's evidence that its clock methodology keeps
	// critical-path skew controlled even when global skew balloons.
	AvgSkew100NS float64

	// --- Critical path ---
	ClockPeriodNS  float64
	SlackNS        float64
	CritSkewNS     float64
	SetupNS        float64
	PathDelayNS    float64
	WireDelayNS    float64
	CellDelayNS    float64
	PathWLum       float64
	TopWLum        float64
	BottomWLum     float64
	PathCells      int
	PathMIVs       int
	TopCells       int
	BottomCells    int
	TopCellDelayNS float64
	BotCellDelayNS float64
	AvgTopDelayNS  float64
	AvgBotDelayNS  float64
}

// DeepAnalyze extracts the Table VIII metrics from a finished flow
// result. It reads the result's live timing, clock tree, power and
// extraction, and changes nothing.
func DeepAnalyze(r *Result) (*DeepDive, error) {
	if r.Timing == nil || r.Clock == nil || r.Power == nil {
		return nil, fmt.Errorf("core: result lacks timing/clock/power data")
	}
	d := r.Design
	dd := &DeepDive{ClockPeriodNS: 1 / r.PPAC.FreqGHz}

	// ---- Memory interconnects.
	var inSq, outSq, swSq float64
	var inN, outN, swN int
	for _, inst := range d.Instances {
		if !inst.Master.Function.IsMacro() {
			continue
		}
		dd.HasMacros = true
		if a := d.NetOf(inst, "A"); a != nil {
			inSq += sq(netLatency(r, a))
			inN++
		}
		if q := d.NetOf(inst, "Q"); q != nil {
			outSq += sq(netLatency(r, q))
			outN++
			swSq += sq(r.Power.NetSwitchingPower(q))
			swN++
		}
	}
	if inN > 0 {
		dd.MemInLatencyPS = math.Sqrt(inSq/float64(inN)) * 1000
	}
	if outN > 0 {
		dd.MemOutLatencyPS = math.Sqrt(outSq/float64(outN)) * 1000
	}
	if swN > 0 {
		dd.MemNetSwitchUW = math.Sqrt(swSq / float64(swN))
	}

	// ---- Clock network.
	ct := r.Clock
	dd.ClockBuffers = len(ct.Buffers)
	dd.TopBuffers = ct.CountByTier[tech.TierTop]
	dd.BottomBuffers = ct.CountByTier[tech.TierBottom]
	dd.ClockBufferAreaUM2 = ct.BufferArea
	dd.ClockWLmm = ct.Wirelength / 1000
	dd.ClockMaxLatencyNS = ct.MaxLatency
	dd.ClockMaxSkewNS = ct.MaxSkew

	paths := r.Timing.CriticalPaths(100)
	if len(paths) == 0 {
		return dd, nil
	}
	sum := 0.0
	cnt := 0
	for _, p := range paths {
		if skew, ok := pathSkew(ct.Latency, p); ok {
			sum += skew
			cnt++
		}
	}
	if cnt > 0 {
		dd.AvgSkew100NS = sum / float64(cnt)
	}

	// ---- Critical path (the worst one).
	p := paths[0]
	dd.SlackNS = p.Slack
	if skew, ok := pathSkew(ct.Latency, p); ok {
		dd.CritSkewNS = skew
	}
	if p.Endpoint != nil {
		dd.SetupNS = p.Endpoint.Master.Setup
	}
	dd.CellDelayNS = p.CellDelaySum()
	dd.WireDelayNS = p.WireDelaySum()
	dd.PathDelayNS = p.Delay()
	dd.PathWLum = p.Wirelength()
	dd.TopWLum = p.WirelengthOnTier(tech.TierTop)
	dd.BottomWLum = p.WirelengthOnTier(tech.TierBottom)
	dd.PathCells = len(p.Stages)
	dd.PathMIVs = p.TierCrossings()
	dd.TopCells = p.CellsOnTier(tech.TierTop)
	dd.BottomCells = p.CellsOnTier(tech.TierBottom)
	dd.TopCellDelayNS = p.CellDelayOnTier(tech.TierTop)
	dd.BotCellDelayNS = p.CellDelayOnTier(tech.TierBottom)
	if dd.TopCells > 0 {
		dd.AvgTopDelayNS = dd.TopCellDelayNS / float64(dd.TopCells)
	}
	if dd.BottomCells > 0 {
		dd.AvgBotDelayNS = dd.BotCellDelayNS / float64(dd.BottomCells)
	}
	return dd, nil
}

func sq(x float64) float64 { return x * x }

// netLatency estimates the mean driver→sink wire latency of a net from
// the extraction (Elmore per sink), in ns.
func netLatency(r *Result, n *netlist.Net) float64 {
	rc := r.Router.Extract(n)
	if len(rc.SinkR) == 0 {
		return 0
	}
	sum := 0.0
	cnt := 0
	for i, s := range n.Sinks {
		sum += tech.RCps(rc.SinkR[i], rc.SinkCapShare[i]+s.Spec().Cap)
		cnt++
	}
	for pi, p := range n.SinkPorts {
		ri := len(n.Sinks) + pi
		sum += tech.RCps(rc.SinkR[ri], rc.SinkCapShare[ri]+p.Cap)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// pathSkew returns capture-latency − launch-latency for a path whose
// launch stage and endpoint are registered.
func pathSkew(lat map[int]float64, p sta.Path) (float64, bool) {
	if p.Endpoint == nil || len(p.Stages) == 0 {
		return 0, false
	}
	launch := p.Stages[0].Inst
	if !launch.Master.Function.IsSequential() && !launch.Master.Function.IsMacro() {
		return 0, false
	}
	return lat[p.Endpoint.ID] - lat[launch.ID], true
}
