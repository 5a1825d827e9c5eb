package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/sta"
)

// Message payload codecs. Every payload is encoded with db.Writer and
// decoded with the bounds-checked, sticky-error db.Reader: a decoder
// reads its fields straight through and finishes with Reader.Done,
// which reports the first failed read or any trailing byte. A hostile
// payload therefore surfaces as db.ErrCorrupt, never a panic — the same
// contract the design-database sections carry.

// OpenRequest asks the server to establish a session: materialize the
// named design in the named configuration at a stage boundary and
// attach a persistent incremental sta.Timer to it.
type OpenRequest struct {
	// Design and Config name the workload (designs.All / core.AllConfigs).
	Design string
	Config string
	// Scale and Seed parameterize netlist generation exactly as the
	// evaluation suite does.
	Scale float64
	Seed  int64
	// ClockGHz is the timing target; the session's period is 1/ClockGHz.
	ClockGHz float64
	// Boundary is the stage boundary to open at, one of
	// core.SaveBoundaries(). Boundaries at or past signoff carry a
	// synthesized clock tree; earlier ones analyze against an ideal
	// clock.
	Boundary string
	// Events streams per-stage EVNT frames while the opening flow runs.
	Events bool
	// DB, when non-empty, is a design-database file image (db.MagicDesign)
	// to open instead of generating and running a flow; the flow resumes
	// from the file's saved stage up to Boundary.
	DB []byte
}

func (m *OpenRequest) encode() []byte {
	w := db.NewWriter()
	w.PutString(m.Design)
	w.PutString(m.Config)
	w.PutF64(m.Scale)
	w.PutI64(m.Seed)
	w.PutF64(m.ClockGHz)
	w.PutString(m.Boundary)
	w.PutBool(m.Events)
	w.PutBytes(m.DB)
	return w.Bytes()
}

func decodeOpenRequest(payload []byte) (*OpenRequest, error) {
	r := db.NewReader(payload)
	m := &OpenRequest{
		Design:   r.String(),
		Config:   r.String(),
		Scale:    r.F64(),
		Seed:     r.I64(),
		ClockGHz: r.F64(),
		Boundary: r.String(),
		Events:   r.Bool(),
		DB:       r.Bytes(),
	}
	return m, r.Done("open request")
}

// SessionInfo is the SESS response: the established session's identity
// and the materialized netlist's size.
type SessionInfo struct {
	ID       uint64
	Cells    int32
	Nets     int32
	Boundary string
	ClockGHz float64
}

func (m *SessionInfo) encode() []byte {
	w := db.NewWriter()
	w.PutU64(m.ID)
	w.PutI32(m.Cells)
	w.PutI32(m.Nets)
	w.PutString(m.Boundary)
	w.PutF64(m.ClockGHz)
	return w.Bytes()
}

func decodeSessionInfo(payload []byte) (*SessionInfo, error) {
	r := db.NewReader(payload)
	m := &SessionInfo{ID: r.U64(), Cells: r.I32(), Nets: r.I32(), Boundary: r.String(), ClockGHz: r.F64()}
	return m, r.Done("session info")
}

// Mutation kinds.
const (
	MutSetLoc  uint8 = 0 // move an instance to (X, Y)
	MutSetTier uint8 = 1 // reassign an instance to Tier
)

// Mutation is one journaled netlist edit. The target is the instance's
// dense ID when ID >= 0, otherwise its name — the former is what the
// load generator uses, the latter what a human types into flowc.
type Mutation struct {
	ID   int32
	Name string
	Kind uint8
	X, Y float64
	Tier uint8
}

func encodeMutations(muts []Mutation) []byte {
	w := db.NewWriter()
	w.PutU32(uint32(len(muts)))
	for _, m := range muts {
		w.PutI32(m.ID)
		w.PutString(m.Name)
		w.PutU8(m.Kind)
		w.PutF64(m.X)
		w.PutF64(m.Y)
		w.PutU8(m.Tier)
	}
	return w.Bytes()
}

func decodeMutations(payload []byte) ([]Mutation, error) {
	r := db.NewReader(payload)
	muts := make([]Mutation, r.Count(26)) // per-element floor: i32 + strlen + u8 + 2×f64 + u8
	for i := 0; r.More(i, len(muts)); i++ {
		muts[i] = Mutation{ID: r.I32(), Name: r.String(), Kind: r.U8(), X: r.F64(), Y: r.F64(), Tier: r.U8()}
	}
	return muts, r.Done("mutation batch")
}

// MutateResult is the MUTR response.
type MutateResult struct {
	// Applied counts the mutations applied (always the full batch — a
	// batch with any invalid entry is rejected atomically).
	Applied int32
}

func (m *MutateResult) encode() []byte {
	w := db.NewWriter()
	w.PutI32(m.Applied)
	return w.Bytes()
}

func decodeMutateResult(payload []byte) (*MutateResult, error) {
	r := db.NewReader(payload)
	m := &MutateResult{Applied: r.I32()}
	return m, r.Done("mutate result")
}

// TimingResult is the TIMR response: the session Timer's incremental
// analysis (byte-identical to a fresh offline sta.Analyze of the same
// netlist state) plus the session's cumulative engine counters.
type TimingResult struct {
	WNS, TNS             float64
	HoldWNS, HoldTNS     float64
	Endpoints            int32
	FailingEndpoints     int32
	FailingHoldEndpoints int32
	// Cumulative sta.TimerStats for the session.
	FullUpdates        int64
	IncrementalUpdates int64
	NodesReevaluated   int64
}

// TimingOf projects an analysis result into the wire message (engine
// counters zero). Tests compare a session's response against
// TimingOf(offline result) field-for-field — bit-exact float equality.
func TimingOf(res *sta.Result) TimingResult {
	return TimingResult{
		WNS:                  res.WNS,
		TNS:                  res.TNS,
		HoldWNS:              res.HoldWNS,
		HoldTNS:              res.HoldTNS,
		Endpoints:            int32(res.Endpoints),
		FailingEndpoints:     int32(res.FailingEndpoints),
		FailingHoldEndpoints: int32(res.FailingHoldEndpoints),
	}
}

// SameAnalysis reports whether two timing results carry bit-identical
// analysis fields, ignoring the engine counters (an incremental session
// necessarily counts updates differently from a one-shot analysis).
func (m TimingResult) SameAnalysis(o TimingResult) bool {
	m.FullUpdates, m.IncrementalUpdates, m.NodesReevaluated = 0, 0, 0
	o.FullUpdates, o.IncrementalUpdates, o.NodesReevaluated = 0, 0, 0
	return m == o
}

func (m *TimingResult) encode() []byte {
	w := db.NewWriter()
	w.PutF64(m.WNS)
	w.PutF64(m.TNS)
	w.PutF64(m.HoldWNS)
	w.PutF64(m.HoldTNS)
	w.PutI32(m.Endpoints)
	w.PutI32(m.FailingEndpoints)
	w.PutI32(m.FailingHoldEndpoints)
	w.PutI64(m.FullUpdates)
	w.PutI64(m.IncrementalUpdates)
	w.PutI64(m.NodesReevaluated)
	return w.Bytes()
}

func decodeTimingResult(payload []byte) (*TimingResult, error) {
	r := db.NewReader(payload)
	m := &TimingResult{
		WNS:                  r.F64(),
		TNS:                  r.F64(),
		HoldWNS:              r.F64(),
		HoldTNS:              r.F64(),
		Endpoints:            r.I32(),
		FailingEndpoints:     r.I32(),
		FailingHoldEndpoints: r.I32(),
		FullUpdates:          r.I64(),
		IncrementalUpdates:   r.I64(),
		NodesReevaluated:     r.I64(),
	}
	return m, r.Done("timing result")
}

// PPACRequest asks for a one-shot full evaluation of one design/config
// unit: the suite's f_max search (on 2D-12T, cached server-side per
// design) followed by a full flow at that frequency.
type PPACRequest struct {
	Design string
	Config string
	Scale  float64
	Seed   int64
	// FmaxIterations overrides the binary-search depth (0 = the
	// evaluation default).
	FmaxIterations int32
	Events         bool
}

func (m *PPACRequest) encode() []byte {
	w := db.NewWriter()
	w.PutString(m.Design)
	w.PutString(m.Config)
	w.PutF64(m.Scale)
	w.PutI64(m.Seed)
	w.PutI32(m.FmaxIterations)
	w.PutBool(m.Events)
	return w.Bytes()
}

func decodePPACRequest(payload []byte) (*PPACRequest, error) {
	r := db.NewReader(payload)
	m := &PPACRequest{
		Design:         r.String(),
		Config:         r.String(),
		Scale:          r.F64(),
		Seed:           r.I64(),
		FmaxIterations: r.I32(),
		Events:         r.Bool(),
	}
	return m, r.Done("ppac request")
}

// PPACResult is the PPCR response. The PPAC record crosses the wire in
// its canonical design-database encoding (core.PutPPAC), so "the same
// numbers as offline" is checkable by byte comparison.
type PPACResult struct {
	FmaxGHz float64
	PPAC    *core.PPAC
}

func (m *PPACResult) encode() []byte {
	w := db.NewWriter()
	w.PutF64(m.FmaxGHz)
	pw := db.NewWriter()
	core.PutPPAC(pw, m.PPAC)
	w.PutBytes(pw.Bytes())
	return w.Bytes()
}

func decodePPACResult(payload []byte) (*PPACResult, error) {
	r := db.NewReader(payload)
	m := &PPACResult{FmaxGHz: r.F64()}
	raw := r.Bytes()
	if err := r.Done("ppac result"); err != nil {
		return nil, err
	}
	pr := db.NewReader(raw)
	m.PPAC = core.ReadPPAC(pr)
	return m, pr.Done("ppac result record")
}

// EventKind discriminates EVNT frames.
type EventKind uint8

const (
	EvStageStart EventKind = 0
	EvStageDone  EventKind = 1
	EvFmaxDone   EventKind = 2
	EvConfigDone EventKind = 3
)

// Event is one streamed progress record — the wire projection of
// flow.Sink / eval.EventSink callbacks.
type Event struct {
	Kind   EventKind
	Design string
	Config string
	Stage  string
	Wall   time.Duration
	Cells  int32
	// Value is the kind-dependent scalar: f_max in GHz for EvFmaxDone,
	// WNS in ns for EvConfigDone, zero otherwise.
	Value float64
	// Err carries a failed stage's error text (EvStageDone only).
	Err string
}

func (m *Event) encode() []byte {
	w := db.NewWriter()
	w.PutU8(uint8(m.Kind))
	w.PutString(m.Design)
	w.PutString(m.Config)
	w.PutString(m.Stage)
	w.PutI64(int64(m.Wall))
	w.PutI32(m.Cells)
	w.PutF64(m.Value)
	w.PutString(m.Err)
	return w.Bytes()
}

func decodeEvent(payload []byte) (*Event, error) {
	r := db.NewReader(payload)
	m := &Event{
		Kind:   EventKind(r.U8()),
		Design: r.String(),
		Config: r.String(),
		Stage:  r.String(),
		Wall:   time.Duration(r.I64()),
		Cells:  r.I32(),
		Value:  r.F64(),
		Err:    r.String(),
	}
	return m, r.Done("event")
}

// wireError is the ERRR payload.
func encodeError(code Code, msg string) []byte {
	w := db.NewWriter()
	w.PutU32(uint32(code))
	w.PutString(msg)
	return w.Bytes()
}

func decodeError(payload []byte) (*RemoteError, error) {
	r := db.NewReader(payload)
	re := &RemoteError{Code: Code(r.U32()), Msg: r.String()}
	return re, r.Done("error frame")
}

// encodeBye / decodeBye carry the BYEE reason ("close" after a client
// CLOS, "shutdown" when the server drains, "protocol error" after
// unrecoverable framing loss).
func encodeBye(reason string) []byte {
	w := db.NewWriter()
	w.PutString(reason)
	return w.Bytes()
}

func decodeBye(payload []byte) (string, error) {
	r := db.NewReader(payload)
	reason := r.String()
	return reason, r.Done("bye frame")
}
