package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/sta"
)

// TestMessageRoundTrips: every payload codec decodes back to the value
// it encoded.
func TestMessageRoundTrips(t *testing.T) {
	open := &OpenRequest{
		Design: "ldpc", Config: "2D-12T", Scale: 0.25, Seed: 7,
		ClockGHz: 1.5, Boundary: "place", Events: true, DB: []byte{1, 2, 3},
	}
	gotOpen, err := decodeOpenRequest(open.encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotOpen.Design != open.Design || gotOpen.Config != open.Config ||
		gotOpen.Scale != open.Scale || gotOpen.Seed != open.Seed ||
		gotOpen.ClockGHz != open.ClockGHz || gotOpen.Boundary != open.Boundary ||
		gotOpen.Events != open.Events || !bytes.Equal(gotOpen.DB, open.DB) {
		t.Fatalf("open round trip: %+v != %+v", gotOpen, open)
	}

	info := &SessionInfo{ID: 42, Cells: 1000, Nets: 900, Boundary: "cts", ClockGHz: 2.5}
	gotInfo, err := decodeSessionInfo(info.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *gotInfo != *info {
		t.Fatalf("session info round trip: %+v != %+v", gotInfo, info)
	}

	muts := []Mutation{
		{ID: 3, Kind: MutSetLoc, X: 1.25, Y: -7.5},
		{ID: -1, Name: "u42", Kind: MutSetTier, Tier: 1},
	}
	gotMuts, err := decodeMutations(encodeMutations(muts))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMuts) != len(muts) || gotMuts[0] != muts[0] || gotMuts[1] != muts[1] {
		t.Fatalf("mutations round trip: %+v != %+v", gotMuts, muts)
	}
	if empty, err := decodeMutations(encodeMutations(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch round trip: %v, %v", empty, err)
	}

	tr := &TimingResult{
		WNS: -0.125, TNS: -3.5, HoldWNS: 0.01, HoldTNS: 0,
		Endpoints: 900, FailingEndpoints: 12, FailingHoldEndpoints: 0,
		FullUpdates: 1, IncrementalUpdates: 5, NodesReevaluated: 1234,
	}
	gotTR, err := decodeTimingResult(tr.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *gotTR != *tr {
		t.Fatalf("timing round trip: %+v != %+v", gotTR, tr)
	}

	ev := &Event{Kind: EvStageDone, Design: "aes", Config: "Hetero-M3D",
		Stage: "place", Wall: 125 * time.Millisecond, Cells: 4096, Err: "boom"}
	gotEv, err := decodeEvent(ev.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *gotEv != *ev {
		t.Fatalf("event round trip: %+v != %+v", gotEv, ev)
	}

	re, err := decodeError(encodeError(CodeBusy, "full up"))
	if err != nil {
		t.Fatal(err)
	}
	if re.Code != CodeBusy || re.Msg != "full up" {
		t.Fatalf("error round trip: %+v", re)
	}

	reason, err := decodeBye(encodeBye("shutdown"))
	if err != nil || reason != "shutdown" {
		t.Fatalf("bye round trip: %q, %v", reason, err)
	}
}

// TestDecodersRejectTrailingBytes: every decoder enforces exact-length
// payloads. Each message's every strict prefix and the payload plus one
// trailing byte must fail with ErrCorrupt, never panic.
func TestDecodersRejectTrailingBytes(t *testing.T) {
	ppac := &core.PPAC{Design: "ldpc", Config: core.ConfigHetero, FreqGHz: 1.5, Refinement: "r"}
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"open", (&OpenRequest{Design: "ldpc", Config: "2D-12T", Scale: 0.05, Seed: 1, ClockGHz: 1,
			Boundary: "place", Events: true, DB: []byte("H3DB")}).encode(),
			func(b []byte) error { _, err := decodeOpenRequest(b); return err }},
		{"session", (&SessionInfo{ID: 7, Cells: 10, Nets: 11, Boundary: "cts", ClockGHz: 1}).encode(),
			func(b []byte) error { _, err := decodeSessionInfo(b); return err }},
		{"mutations", encodeMutations([]Mutation{{ID: 1, Kind: MutSetLoc, X: 1, Y: 2}, {ID: -1, Name: "u1", Kind: MutSetTier, Tier: 1}}),
			func(b []byte) error { _, err := decodeMutations(b); return err }},
		{"mutate result", (&MutateResult{Applied: 2}).encode(),
			func(b []byte) error { _, err := decodeMutateResult(b); return err }},
		{"timing", (&TimingResult{WNS: -1, Endpoints: 3, NodesReevaluated: 9}).encode(),
			func(b []byte) error { _, err := decodeTimingResult(b); return err }},
		{"ppac request", (&PPACRequest{Design: "ldpc", Config: "2D-12T", Scale: 0.05, FmaxIterations: 2, Events: true}).encode(),
			func(b []byte) error { _, err := decodePPACRequest(b); return err }},
		{"ppac result", (&PPACResult{FmaxGHz: 1.5, PPAC: ppac}).encode(),
			func(b []byte) error { _, err := decodePPACResult(b); return err }},
		{"event", (&Event{Kind: EvStageDone, Design: "ldpc", Config: "2D-12T", Stage: "place", Wall: 5, Cells: 3, Err: "x"}).encode(),
			func(b []byte) error { _, err := decodeEvent(b); return err }},
		{"error", encodeError(CodeBusy, "x"),
			func(b []byte) error { _, err := decodeError(b); return err }},
		{"bye", encodeBye("close"),
			func(b []byte) error { _, err := decodeBye(b); return err }},
	}
	for _, c := range cases {
		if err := c.decode(c.payload); err != nil {
			t.Fatalf("%s: intact payload: %v", c.name, err)
		}
		for n := 0; n <= len(c.payload); n++ {
			in := c.payload[:n]
			if n == len(c.payload) {
				in = append(append([]byte(nil), c.payload...), 0xEE)
			}
			if err := c.decode(in); !errors.Is(err, db.ErrCorrupt) {
				t.Errorf("%s: %d of %d bytes: %v, want ErrCorrupt", c.name, len(in), len(c.payload), err)
			}
		}
	}
}

// TestTimingOfAndSameAnalysis pin the projection and the comparison's
// counter-blindness.
func TestTimingOfAndSameAnalysis(t *testing.T) {
	res := &sta.Result{WNS: -1, TNS: -2, HoldWNS: 3, HoldTNS: 0,
		Endpoints: 10, FailingEndpoints: 4, FailingHoldEndpoints: 1}
	a := TimingOf(res)
	if a.WNS != -1 || a.Endpoints != 10 || a.FailingHoldEndpoints != 1 {
		t.Fatalf("TimingOf = %+v", a)
	}
	b := a
	b.FullUpdates, b.IncrementalUpdates = 99, 100
	if !a.SameAnalysis(b) {
		t.Fatal("SameAnalysis must ignore engine counters")
	}
	b.WNS = 0
	if a.SameAnalysis(b) {
		t.Fatal("SameAnalysis must catch an analysis difference")
	}
}

// TestRemoteErrorUnwrap: wire codes reconstruct errors.Is-compatible
// sentinels client-side.
func TestRemoteErrorUnwrap(t *testing.T) {
	cases := []struct {
		code Code
		want error
	}{
		{CodeCorrupt, db.ErrCorrupt},
		{CodeVersion, db.ErrVersion},
		{CodeBadRequest, ErrBadRequest},
		{CodeState, ErrState},
		{CodeBusy, ErrBusy},
		{CodeCancelled, ErrCancelled},
		{CodeShutdown, ErrShutdown},
		{CodeInternal, ErrInternal},
		{Code(99), ErrInternal},
	}
	for _, c := range cases {
		re := &RemoteError{Code: c.code, Msg: "x"}
		if !errors.Is(re, c.want) {
			t.Errorf("code %s does not unwrap to %v", c.code, c.want)
		}
	}
	if got := codeOf(&RemoteError{Code: CodeBusy}); got != CodeBusy {
		t.Errorf("codeOf round trip via sentinel = %v", got)
	}
}

// TestHandshakeVersionGate: a client speaking a future protocol version
// is refused with a typed version error, and garbage instead of a
// handshake is a typed corrupt error.
func TestHandshakeVersionGate(t *testing.T) {
	_, addr := startServer(t, Options{})

	// Future version.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hs [8]byte
	copy(hs[:4], Magic)
	binary.LittleEndian.PutUint32(hs[4:], ProtocolVersion+1)
	if _, err := nc.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	if err := expectServerError(t, nc, CodeVersion); err != nil {
		t.Fatalf("future version: %v", err)
	}

	// Garbage magic.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	if _, err := nc2.Write([]byte("NOPE\x01\x00\x00\x00")); err != nil {
		t.Fatal(err)
	}
	if err := expectServerError(t, nc2, CodeCorrupt); err != nil {
		t.Fatalf("bad magic: %v", err)
	}
}

// expectServerError reads the server's handshake then one ERRR frame
// and checks its code.
func expectServerError(t *testing.T, nc net.Conn, want Code) error {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := readHandshake(nc); err != nil {
		return err
	}
	tag, payload, err := db.ReadFrame(nc, DefaultMaxFrame)
	if err != nil {
		return err
	}
	if tag != TagError {
		t.Fatalf("got frame %s, want ERRR", tag)
	}
	re, err := decodeError(payload)
	if err != nil {
		return err
	}
	if re.Code != want {
		t.Fatalf("code = %s, want %s", re.Code, want)
	}
	return nil
}

// TestUnknownTagKeepsConnection: a well-framed request with an unknown
// tag yields CodeBadRequest and the connection stays up.
func TestUnknownTagKeepsConnection(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dialT(t, addr)
	defer cl.Close()

	if err := cl.writeFrame("WHAT", []byte("?")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.await(TagPong, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown tag: err = %v, want ErrBadRequest", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after unknown tag: %v", err)
	}
}

// TestUnframeableStreamHangsUp: once framing is lost (CRC mismatch),
// the server reports a typed corrupt error, sends its BYEE record, and
// hangs up.
func TestUnframeableStreamHangsUp(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dialT(t, addr)
	defer cl.Close()

	// A frame with a corrupted CRC.
	raw, err := db.AppendFrame(nil, TagPing, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if _, err := cl.nc.Write(raw); err != nil {
		t.Fatal(err)
	}
	_, err = cl.await(TagPong, nil)
	if !errors.Is(err, db.ErrCorrupt) {
		t.Fatalf("corrupt frame: err = %v, want db.ErrCorrupt", err)
	}
	// The next read sees the BYEE protocol-error record (as an
	// ErrShutdown-typed close) or a plain EOF if the teardown won.
	if _, err := cl.await(TagPong, nil); err == nil {
		t.Fatal("connection survived an unframeable stream")
	}
}

// TestPipelinedOpenBeforeCorruptFrame: a request queued ahead of an
// unframeable frame is answered in full before the typed corrupt error
// and the hang-up. The bad frame ends the stream, not the work already
// queued on it.
func TestPipelinedOpenBeforeCorruptFrame(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dialT(t, addr)
	defer cl.Close()

	req := testWorkload
	raw, err := db.AppendFrame(nil, TagOpen, req.encode())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := db.AppendFrame(nil, TagPing, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad[len(bad)-1] ^= 0xff
	if _, err := cl.nc.Write(append(raw, bad...)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.await(TagSession, nil); err != nil {
		t.Fatalf("OPEN queued ahead of a corrupt frame: %v", err)
	}
	if _, err := cl.await(TagPong, nil); !errors.Is(err, db.ErrCorrupt) {
		t.Fatalf("corrupt frame: err = %v, want db.ErrCorrupt", err)
	}
	if _, err := cl.await(TagPong, nil); err == nil {
		t.Fatal("connection survived an unframeable stream")
	}
}
