package check

// SessionState is the pure-data export of a Session's stage-boundary
// context: what the monotonicity rule (ENG-003) compares the next
// boundary against. Saving it with a design snapshot lets a resumed
// flow keep enforcing revision monotonicity across the save/load
// boundary instead of silently restarting the baseline.
type SessionState struct {
	Seen      bool
	PrevStage string
	PrevTopo  uint64
	PrevInsts int
	PrevNets  int
}

// State exports the session's boundary context.
func (s *Session) State() SessionState { return s.prev }

// Restore overwrites the session with a previously exported state and
// report history — the resume counterpart of State/Reports.
func (s *Session) Restore(st SessionState, reports []*Report) {
	s.prev = st
	s.reports = append([]*Report(nil), reports...)
}
