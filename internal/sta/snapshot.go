package sta

import (
	"fmt"

	"repro/internal/netlist"
)

// Snapshot is the pure-data export of a timing Result: the summary
// numbers, every per-instance array, and the endpoint slack table with
// instance/port references flattened to dense IDs. It carries enough to
// restore a Result whose every accessor — CellSlack, SlackMap,
// EffectiveDelay, CriticalPaths — answers bit-identically to the
// original, without rerunning analysis.
type Snapshot struct {
	// Period is the clock period the analysis ran at (cfg.Period);
	// EffectiveDelay needs it.
	Period                                 float64
	WNS, TNS                               float64
	HoldWNS, HoldTNS                       float64
	Endpoints, FailingEndpoints            int
	FailingHoldEndpoints                   int
	ArrOut, ReqOut, Delay, SlewOut, InWire []float64
	Pred                                   []int32
	Ends                                   []EndpointSnap
}

// EndpointSnap is one endpoint-slack entry with references by dense
// index: Inst indexes Design.Instances (-1 for an output-port
// endpoint), Port indexes Design.Ports (-1 when absent).
type EndpointSnap struct {
	Inst  int32
	Port  int32
	From  int32
	Slack float64
	Hold  float64
}

// Snapshot exports the result for serialization. Slices are copied; the
// snapshot does not alias the result.
func (res *Result) Snapshot() *Snapshot {
	res.Settle()
	s := &Snapshot{
		Period:               res.cfg.Period,
		WNS:                  res.WNS,
		TNS:                  res.TNS,
		HoldWNS:              res.HoldWNS,
		HoldTNS:              res.HoldTNS,
		Endpoints:            res.Endpoints,
		FailingEndpoints:     res.FailingEndpoints,
		FailingHoldEndpoints: res.FailingHoldEndpoints,
		ArrOut:               append([]float64(nil), res.arrOut...),
		ReqOut:               append([]float64(nil), res.reqOut...),
		Delay:                append([]float64(nil), res.delay...),
		SlewOut:              append([]float64(nil), res.slewOut...),
		InWire:               append([]float64(nil), res.inWire...),
		Pred:                 append([]int32(nil), res.pred...),
	}
	for _, e := range res.endSlack {
		es := EndpointSnap{Inst: -1, Port: -1, From: e.from, Slack: e.slack, Hold: e.hold}
		if e.inst != nil {
			es.Inst = int32(e.inst.ID)
		}
		if e.port != nil {
			for i, p := range res.d.Ports {
				if p == e.port {
					es.Port = int32(i)
					break
				}
			}
		}
		s.Ends = append(s.Ends, es)
	}
	return s
}

// RestoreResult rebuilds a Result over d from a snapshot, validating
// every index and array length against the design. The restored result
// is a read-only view — path tracing and slack queries work; it is not
// attached to a Timer.
func RestoreResult(d *netlist.Design, s *Snapshot) (*Result, error) {
	n := len(d.Instances)
	arrays := []struct {
		name string
		arr  []float64
	}{
		{"arrival", s.ArrOut}, {"required", s.ReqOut}, {"delay", s.Delay},
		{"slew", s.SlewOut}, {"wire", s.InWire},
	}
	for _, a := range arrays {
		if len(a.arr) != n {
			return nil, fmt.Errorf("sta: restore: %s array covers %d instances, design has %d", a.name, len(a.arr), n)
		}
	}
	if len(s.Pred) != n {
		return nil, fmt.Errorf("sta: restore: predecessor array covers %d instances, design has %d", len(s.Pred), n)
	}
	for i, p := range s.Pred {
		if p < -1 || int(p) >= n {
			return nil, fmt.Errorf("sta: restore: predecessor %d of instance %d out of range", p, i)
		}
	}
	res := &Result{
		WNS:                  s.WNS,
		TNS:                  s.TNS,
		HoldWNS:              s.HoldWNS,
		HoldTNS:              s.HoldTNS,
		Endpoints:            s.Endpoints,
		FailingEndpoints:     s.FailingEndpoints,
		FailingHoldEndpoints: s.FailingHoldEndpoints,
		cfg:                  DefaultConfig(s.Period),
		d:                    d,
		arrOut:               append([]float64(nil), s.ArrOut...),
		reqOut:               append([]float64(nil), s.ReqOut...),
		delay:                append([]float64(nil), s.Delay...),
		slewOut:              append([]float64(nil), s.SlewOut...),
		inWire:               append([]float64(nil), s.InWire...),
		pred:                 append([]int32(nil), s.Pred...),
	}
	for i, es := range s.Ends {
		e := endpoint{from: es.From, slack: es.Slack, hold: es.Hold}
		if es.Inst >= 0 {
			if int(es.Inst) >= n {
				return nil, fmt.Errorf("sta: restore: endpoint %d references instance %d of %d", i, es.Inst, n)
			}
			e.inst = d.Instances[es.Inst]
		}
		if es.Port >= 0 {
			if int(es.Port) >= len(d.Ports) {
				return nil, fmt.Errorf("sta: restore: endpoint %d references port %d of %d", i, es.Port, len(d.Ports))
			}
			e.port = d.Ports[es.Port]
		}
		if es.From < -1 || int(es.From) >= n {
			return nil, fmt.Errorf("sta: restore: endpoint %d references driver %d of %d", i, es.From, n)
		}
		res.endSlack = append(res.endSlack, e)
	}
	return res, nil
}
