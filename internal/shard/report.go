package shard

import (
	"fmt"
	"strings"

	"repro/internal/eval"
	"repro/internal/report"
)

// Farm is a completed distributed evaluation: the merged suite plus the
// coordination history the resilience story is judged by.
type Farm struct {
	// Suite is the evaluation rehydrated from the merged journal; every
	// result is checkpoint-restored, so its Tables I–VIII are the exact
	// bytes a single-process run renders.
	Suite *eval.Suite
	// Merged is the merged journal path.
	Merged string
	// Shards is the per-shard outcome ledger.
	Shards []ShardState
	// Leases is the full coordination history in append order.
	Leases []eval.Lease
	// Restarts counts re-grants (any lease granted at attempt > 1);
	// Expiries counts leases that expired back to the pool; Quarantines
	// counts shard journals set aside after failing validation.
	Restarts, Expiries, Quarantines int
}

// ShardState is one shard's final ledger entry.
type ShardState struct {
	Index       int
	Units       []eval.Unit
	Attempts    int
	Owner       string // final owner token
	Quarantines int
	Outcome     string
	// StderrTail is the last worker's captured stderr tail (attribution
	// for the post-mortem; empty for shards that never misbehaved).
	StderrTail string
}

// Report renders the farm ledger: one row per shard plus a totals row
// carrying the restart/expiry/quarantine counters.
func (f *Farm) Report() *report.Table {
	t := report.NewTable("Distributed evaluation — shard farm",
		"Shard", "Units", "Attempts", "Final owner", "Outcome")
	for _, s := range f.Shards {
		t.AddRowf(
			fmt.Sprintf("%d", s.Index),
			unitsLabel(s.Units),
			fmt.Sprintf("%d", s.Attempts),
			s.Owner,
			s.Outcome,
		)
	}
	t.AddRowf("totals",
		fmt.Sprintf("%d", f.totalUnits()),
		fmt.Sprintf("%d", f.totalAttempts()),
		"",
		fmt.Sprintf("%d restart(s), %d expiry(ies), %d quarantine(s)",
			f.Restarts, f.Expiries, f.Quarantines),
	)
	return t
}

func (f *Farm) totalUnits() int {
	n := 0
	for _, s := range f.Shards {
		n += len(s.Units)
	}
	return n
}

func (f *Farm) totalAttempts() int {
	n := 0
	for _, s := range f.Shards {
		n += s.Attempts
	}
	return n
}

// unitsLabel compresses a shard's unit list for the table: contiguous
// single-design shards read "aes (5 cfgs)", mixed shards list the span.
func unitsLabel(units []eval.Unit) string {
	if len(units) == 0 {
		return "none"
	}
	single := true
	for _, u := range units[1:] {
		if u.Design != units[0].Design {
			single = false
			break
		}
	}
	if single {
		return fmt.Sprintf("%s (%d cfgs)", units[0].Design, len(units))
	}
	return fmt.Sprintf("%s … %s (%d units)", units[0], units[len(units)-1], len(units))
}

// LeaseHistory renders the coordination journal for logs and tests.
func (f *Farm) LeaseHistory() string {
	var b strings.Builder
	for _, l := range f.Leases {
		fmt.Fprintf(&b, "shard %d %-10s owner=%s attempt=%d", l.Shard, l.Action, l.Owner, l.Attempt)
		if l.Reason != "" {
			fmt.Fprintf(&b, " (%s)", l.Reason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
