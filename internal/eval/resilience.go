package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/report"
)

// ResilienceReport renders the suite's per-flow robustness outcomes: one
// row per eventful flow (faults injected, retries taken, degraded mode
// entered, or restored from checkpoint) plus a summary of the clean rest.
// A clean, fault-free run reports zero everything — the acceptance bar
// for the no-fault byte-identity check.
func (s *Suite) ResilienceReport() *report.Table {
	var rows []report.ResilienceRow
	for _, dn := range s.DesignsInOrder() {
		for _, cfg := range core.AllConfigs {
			r, ok := s.Results[dn][cfg]
			if !ok || r == nil {
				continue
			}
			tot := flow.Totals(r.Stages)
			outcome := "ok"
			switch {
			case r.Restored:
				outcome = "ok (restored)"
			case len(r.Degraded) > 0:
				outcome = "ok (degraded)"
			case r.Attempts > 1:
				outcome = fmt.Sprintf("ok (attempt %d)", r.Attempts)
			}
			rows = append(rows, report.ResilienceRow{
				Design:   string(dn),
				Config:   string(cfg),
				Attempts: r.Attempts,
				Faults:   tot[flow.StatFaultsInjected],
				Reruns:   tot[flow.StatStageReruns],
				Panics:   tot[flow.StatPanicsRecovered],
				Degraded: r.Degraded,
				Outcome:  outcome,
			})
		}
	}
	return report.ResilienceTable("Suite resilience — faults, retries, degradations", rows)
}
