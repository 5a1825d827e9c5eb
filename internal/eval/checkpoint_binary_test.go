package eval

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/flow"
)

// binaryFlowRecord builds a flow record exercising every optional
// field: stage stats, degradations, a deep dive, check reports.
func binaryFlowRecord() *FlowRecord {
	return &FlowRecord{
		Design: designs.CPU, Config: core.ConfigHetero,
		PPAC: &core.PPAC{Design: "cpu", Config: core.ConfigHetero, FreqGHz: 0.4375,
			PowerMW: 12.5, WNS: -0.03125, WLm: 0.25, MIVs: 210, Refinement: "hetero flow, cut=140"},
		Stages: []flow.StageMetric{
			{Name: "place", Wall: 1e6, Cells: 1234, Stats: map[string]int64{flow.StatCongestionRetries: 1}},
			{Name: "cts", Cells: 1290},
		},
		Degraded: []string{flow.DegradeFullSTA},
		Dive:     &core.DeepDive{ClockBuffers: 56, ClockPeriodNS: 2.2857142857142856, SlackNS: -0.03125, HasMacros: true},
		Checks: []*check.Report{{
			Design: "cpu", Stage: "signoff",
			Stats:      []check.RuleStat{{ID: "ENG-003", Title: "journal monotonicity", Severity: check.Error, Checked: 10, Violations: 1}},
			Violations: []check.Violation{{Rule: "ENG-003", Severity: check.Error, Obj: "topo", Msg: "rev moved backwards"}},
		}},
	}
}

func TestBinaryCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	opt := ckptOpts()

	ck, err := OpenCheckpoint(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		t.Fatal(err)
	}
	want := binaryFlowRecord()
	if err := ck.PutFlow(want); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:4]) != db.MagicJournal {
		t.Fatalf("file magic %q, want %q", data[:4], db.MagicJournal)
	}

	ck2, err := OpenCheckpoint(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	fmax, cells, ok := ck2.Fmax(designs.CPU)
	if !ok || fmax != 0.4375 || cells != 1234 {
		t.Errorf("fmax record = %v/%d/%v", fmax, cells, ok)
	}
	got, ok := ck2.Flow(designs.CPU, core.ConfigHetero)
	if !ok {
		t.Fatal("flow record missing after reopen")
	}
	if !got.Restored || got.Design != designs.CPU || got.Config != core.ConfigHetero {
		t.Errorf("reloaded record: restored %v, key %s/%s", got.Restored, got.Design, got.Config)
	}
	if got.PPAC.WNS != want.PPAC.WNS || got.PPAC.Refinement != want.PPAC.Refinement {
		t.Errorf("PPAC did not round-trip: %+v", got.PPAC)
	}
	if len(got.Stages) != 2 || got.Stages[0].Stats[flow.StatCongestionRetries] != 1 ||
		got.Stages[0].Wall != want.Stages[0].Wall {
		t.Errorf("stage metrics lost: %+v", got.Stages)
	}
	if got.Dive == nil || got.Dive.ClockPeriodNS != want.Dive.ClockPeriodNS || !got.Dive.HasMacros {
		t.Errorf("deep dive lost: %+v", got.Dive)
	}
	if len(got.Checks) != 1 || len(got.Checks[0].Violations) != 1 ||
		got.Checks[0].Violations[0].Msg != "rev moved backwards" {
		t.Errorf("check reports lost: %+v", got.Checks)
	}
	if len(got.Degraded) != 1 || got.Degraded[0] != flow.DegradeFullSTA {
		t.Errorf("degraded flags lost: %v", got.Degraded)
	}
}

func TestBinaryCheckpointRefusesOptionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	bad := ckptOpts()
	bad.Seed = 99
	if _, err := OpenCheckpoint(path, bad); err == nil || !strings.Contains(err.Error(), "different suite options") {
		t.Errorf("seed mismatch must be refused with the shared message, got %v", err)
	}
}

func TestBinaryCheckpointToleratesTruncatedFinalFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.AES, 99, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFlow(binaryFlowRecord()); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// A kill mid-append leaves a partial final frame: chop bytes off the
	// last record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatalf("truncated final frame must be tolerated: %v", err)
	}
	defer ck2.Close()
	if _, _, ok := ck2.Fmax(designs.AES); !ok {
		t.Error("intact records before the truncation lost")
	}
	if _, ok := ck2.Flow(designs.CPU, core.ConfigHetero); ok {
		t.Error("the half-written record must not be served")
	}
}

func TestBinaryCheckpointRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.AES, 99, 0.5); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in a complete frame: the CRC must refuse it.
	data[len(data)-6] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, ckptOpts()); err == nil {
		t.Error("CRC-corrupt frame must be rejected")
	}
}

// TestJournalLines pins the text rendering designdb inspect prints: one
// line per record in file order, and a note for a truncated final frame.
func TestJournalLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFlow(binaryFlowRecord()); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	lines, err := JournalLines(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"header v1 scale 0.05 seed 1 fmax-iters 3 check off designs netcard,aes,ldpc,cpu configs ",
		"fmax cpu 1234 cells 0.4375 GHz",
		"flow cpu Hetero-M3D  0.4375 GHz  12.5 mW  WNS -0.03125 ns",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}

	lines, err = JournalLines(data[:len(data)-7])
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lines); n != 3 || !strings.HasPrefix(lines[2], "truncated final frame") {
		t.Errorf("truncated journal lines:\n%s", strings.Join(lines, "\n"))
	}
}

// testJournal writes a journal holding one record of every kind — a
// header, an fmax and a flow with every optional field — and returns its
// bytes.
func testJournal(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.db")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFlow(binaryFlowRecord()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// withFrame returns a journal of data's header frame followed by one
// frame (tag, payload) with a freshly computed CRC; a header frame
// replaces the original one instead.
func withFrame(t *testing.T, data []byte, tag string, payload []byte) []byte {
	t.Helper()
	_, infos, err := db.List(data)
	if err != nil {
		t.Fatal(err)
	}
	out := db.Header(db.MagicJournal)
	if tag != tagCkptHeader {
		out = append(out, data[8:infos[0].Offset+infos[0].Len+4]...)
	}
	if out, err = db.AppendFrame(out, tag, payload); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalRefusesTrailingBytes: a record frame with one byte past
// its encoding — CRC recomputed, so the framing is intact — is corrupt
// for both the verifier and resume, as it is for design-database
// sections and wire messages.
func TestJournalRefusesTrailingBytes(t *testing.T) {
	data := testJournal(t)
	_, infos, err := db.List(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Tag != tagCkptFlow {
			continue
		}
		payload := append(append([]byte(nil), data[info.Offset:info.Offset+info.Len]...), 0)
		bad := withFrame(t, data, tagCkptFlow, payload)
		if err := VerifyJournal(bad); !errors.Is(err, db.ErrCorrupt) {
			t.Errorf("VerifyJournal: %v, want ErrCorrupt", err)
		}
		path := filepath.Join(t.TempDir(), "ckpt.db")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, ckptOpts()); !errors.Is(err, db.ErrCorrupt) {
			t.Errorf("OpenCheckpoint: %v, want ErrCorrupt", err)
		}
		return
	}
	t.Fatal("journal has no flow record")
}

// TestJournalTruncationMatrix decodes every strict prefix of every
// record payload (EHDR, FMAX, FLOW), and each payload plus one
// trailing byte, as a complete CRC-valid frame: each must be refused
// with ErrCorrupt, never panic and never decode to zero values.
func TestJournalTruncationMatrix(t *testing.T) {
	data := testJournal(t)
	if err := VerifyJournal(data); err != nil {
		t.Fatal(err)
	}
	_, infos, err := db.List(data)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, info := range infos {
		seen[info.Tag] = true
		payload := data[info.Offset : info.Offset+info.Len]
		for n := 0; n <= len(payload); n++ {
			in := payload[:n]
			if n == len(payload) {
				in = append(append([]byte(nil), payload...), 0)
			}
			if err := VerifyJournal(withFrame(t, data, info.Tag, in)); !errors.Is(err, db.ErrCorrupt) {
				t.Fatalf("%s: %d of %d bytes: %v, want ErrCorrupt", info.Tag, len(in), len(payload), err)
			}
		}
	}
	for _, tag := range []string{tagCkptHeader, tagCkptFmax, tagCkptFlow} {
		if !seen[tag] {
			t.Errorf("test journal has no %s record", tag)
		}
	}
}

// TestJournalBytesPinned pins the journal's bytes: the file header, a
// header frame, an FMAX frame and a FLOW frame with every optional field,
// encoded from fixed values, hash to a pinned SHA-256. Bytes that move
// break resume of every journal already on disk.
func TestJournalBytesPinned(t *testing.T) {
	const (
		wantLen    = 837
		wantSHA256 = "4bca9a253ae6e72a3385718bf6f1cd1d0b0ee0ad1d8cc41f2e93872d7707e0bb"
	)
	opt := ckptOpts()
	opt.Check = core.CheckFast
	b, err := appendHeaderFrame(db.Header(db.MagicJournal), headerFor(opt.withDefaults()))
	if err != nil {
		t.Fatal(err)
	}
	if b, err = appendRecordFrame(b, &ckptFmax{Design: "cpu", Cells: 1234, FmaxGHz: 0.4375}); err != nil {
		t.Fatal(err)
	}
	b, err = appendRecordFrame(b, &FlowRecord{
		Design: designs.CPU, Config: core.ConfigHetero,
		PPAC: &core.PPAC{Design: "cpu", Config: core.ConfigHetero, FreqGHz: 0.4375,
			FootprintMM2: 0.0125, SiAreaMM2: 0.025, ChipWidthUM: 111.8, Density: 0.68, WLm: 0.25,
			MIVs: 210, PowerMW: 12.5, LeakageMW: 0.8, ClockPowerMW: 1.9, WNS: -0.03125, TNS: -1.25,
			EffDelayNS: 2.3167, PDPpJ: 28.96, DieCostMicroC: 4.2, CostPerCm2: 168, PPC: 8.33,
			Cells: 4321, CutSize: 140, Refinement: "hetero flow, cut=140"},
		Stages: []flow.StageMetric{
			{Name: "place", Wall: 1e6, Cells: 1234, Stats: map[string]int64{flow.StatCongestionRetries: 1, flow.StatSTAFull: 3}},
			{Name: "cts", Cells: 1290},
		},
		Degraded: []string{flow.DegradeFullSTA},
		Dive: &core.DeepDive{MemInLatencyPS: 1.5, ClockBuffers: 56, TopBuffers: 20, BottomBuffers: 36,
			ClockPeriodNS: 2.2857142857142856, SlackNS: -0.03125, PathCells: 17, PathWLum: 123.25,
			AvgBotDelayNS: 0.0625, HasMacros: true},
		Checks: []*check.Report{{
			Design: "cpu", Stage: "signoff",
			Stats:      []check.RuleStat{{ID: "ENG-003", Title: "journal monotonicity", Severity: check.Error, Checked: 10, Violations: 1}},
			Violations: []check.Violation{{Rule: "ENG-003", Severity: check.Error, Obj: "topo", Msg: "rev moved backwards"}},
		}},
		// Not journaled: these must not reach the bytes.
		Attempts: 3,
		Restored: true,
		Layout:   &Layout{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != wantLen || got != wantSHA256 {
		t.Errorf("journal bytes moved: %d bytes, sha256 %s; want %d bytes, sha256 %s", len(b), got, wantLen, wantSHA256)
	}
}
