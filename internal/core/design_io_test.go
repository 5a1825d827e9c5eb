package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/route"
)

// ppacBytes is the canonical byte form of a PPAC record, the
// comparison currency of the resume-parity tests: two PPACs are "the
// same result" exactly when their encodings match bit for bit.
func ppacBytes(t *testing.T, p *PPAC) []byte {
	t.Helper()
	if p == nil {
		return nil
	}
	w := db.NewWriter()
	PutPPAC(w, p)
	return w.Bytes()
}

func checksBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	w := db.NewWriter()
	for _, rep := range r.Checks {
		db.PutCheckReport(w, rep)
	}
	return w.Bytes()
}

// metricKey strips the wall-clock time (the one legitimately
// nondeterministic field) from a stage metric.
type metricKey struct {
	Name  string
	Cells int
	Stats string
}

func metricKeys(ms []flow.StageMetric) []metricKey {
	out := make([]metricKey, len(ms))
	for i, m := range ms {
		keys := make([]string, 0, len(m.Stats))
		for k := range m.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%d;", k, m.Stats[k])
		}
		out[i] = metricKey{Name: m.Name, Cells: m.Cells, Stats: b.String()}
	}
	return out
}

// TestSaveLoadBoundaryMatrix saves the design at every boundary of both
// flow shapes and resumes each save, requiring the resumed flow's final
// PPAC, check reports, degradations, and stage metrics to be
// byte-identical to the uninterrupted run it was carved out of.
func TestSaveLoadBoundaryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full save/load matrix")
	}
	src := genSrc(t, designs.AES, 0.05)
	for _, cfg := range []ConfigName{Config2D12T, ConfigHetero} {
		opt := DefaultOptions(testClock)
		opt.Check = CheckFull
		opt.CheckReportOnly = true

		base, err := Run(context.Background(), src, cfg, opt)
		if err != nil {
			t.Fatalf("%s: baseline: %v", cfg, err)
		}
		wantPPAC := ppacBytes(t, base.PPAC)
		wantChecks := checksBytes(t, base)
		wantMetrics := metricKeys(base.Stages)

		for _, boundary := range saveBoundaries {
			t.Run(string(cfg)+"/"+boundary, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "design.db")
				save := opt
				save.SaveDesign = path
				save.SaveAfter = boundary
				if _, err := Run(context.Background(), src, cfg, save); err != nil {
					t.Fatalf("save run: %v", err)
				}

				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("no database written: %v", err)
				}
				if err := VerifyDesignFile(data); err != nil {
					t.Fatalf("saved file not canonical: %v", err)
				}

				load := opt
				load.LoadDesign = path
				res, err := Run(context.Background(), src, cfg, load)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if got := ppacBytes(t, res.PPAC); !bytes.Equal(got, wantPPAC) {
					t.Errorf("resumed PPAC differs from uninterrupted run:\n got %+v\nwant %+v", res.PPAC, base.PPAC)
				}
				if got := checksBytes(t, res); !bytes.Equal(got, wantChecks) {
					t.Errorf("resumed check reports differ (%d vs %d reports)", len(res.Checks), len(base.Checks))
				}
				if got := metricKeys(res.Stages); len(got) != len(wantMetrics) {
					t.Errorf("stage metric count %d, want %d", len(got), len(wantMetrics))
				} else {
					for i := range got {
						if got[i] != wantMetrics[i] {
							t.Errorf("stage %d metric differs:\n got %+v\nwant %+v", i, got[i], wantMetrics[i])
						}
					}
				}
				if len(res.Degraded) != len(base.Degraded) {
					t.Errorf("degradations %v, want %v", res.Degraded, base.Degraded)
				}
			})
		}
	}
}

// TestResumeDegradedSave resumes a database saved after the flow
// degraded to full-STA recomputes. The save must load under the
// options the flow ran with, and the resumed run must finish on the
// uninterrupted run's PPAC, degradations and per-stage timing-engine
// work.
func TestResumeDegradedSave(t *testing.T) {
	if testing.Short() {
		t.Skip("degraded save/resume")
	}
	src := genSrc(t, designs.AES, 0.05)
	for _, tc := range []struct{ spec, boundary string }{
		{"aes/Hetero-M3D/place@1=corrupt:journal", StageCTS},
		{"aes/Hetero-M3D/eco@1=corrupt:extraction-cache", StageSignoff},
	} {
		t.Run(tc.boundary, func(t *testing.T) {
			run := func(path string, save bool) *Result {
				t.Helper()
				plan, err := fault.ParseSpec(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				opt := DefaultOptions(testClock)
				opt.Check = CheckFull
				opt.Fault = plan
				if save {
					opt.SaveDesign, opt.SaveAfter = path, tc.boundary
				} else {
					opt.LoadDesign = path
				}
				r, err := Run(context.Background(), src, ConfigHetero, opt)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			path := filepath.Join(t.TempDir(), "design.db")
			base := run(path, true)
			if !slices.Contains(base.Degraded, flow.DegradeFullSTA) {
				t.Fatalf("fault did not degrade the flow: %v", base.Degraded)
			}
			res := run(path, false)
			if got, want := ppacBytes(t, res.PPAC), ppacBytes(t, base.PPAC); !bytes.Equal(got, want) {
				t.Errorf("resumed PPAC differs:\n got %+v\nwant %+v", res.PPAC, base.PPAC)
			}
			if !slices.Equal(res.Degraded, base.Degraded) {
				t.Errorf("degradations %v, want %v", res.Degraded, base.Degraded)
			}
			if len(res.Stages) != len(base.Stages) {
				t.Fatalf("%d stages, want %d", len(res.Stages), len(base.Stages))
			}
			for i, m := range res.Stages {
				want := base.Stages[i]
				for _, k := range []string{flow.StatSTAFull, flow.StatSTAIncr} {
					if m.Name != want.Name || m.Stats[k] != want.Stats[k] {
						t.Errorf("stage %d %s %s = %d, want %s %d", i, m.Name, k, m.Stats[k], want.Name, want.Stats[k])
					}
				}
			}
		})
	}
}

// TestSaveLoadResumeWorkers proves the FLOW_WORKERS independence of the
// resume path: a design saved under serial execution resumes under
// 8-way intra-flow parallelism onto the same bytes.
func TestSaveLoadResumeWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-worker resume")
	}
	src := genSrc(t, designs.AES, 0.05)
	opt := DefaultOptions(testClock)
	opt.FlowWorkers = 1

	base, err := Run(context.Background(), src, ConfigHetero, opt)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "design.db")
	save := opt
	save.SaveDesign = path
	save.SaveAfter = StagePlace
	if _, err := Run(context.Background(), src, ConfigHetero, save); err != nil {
		t.Fatal(err)
	}

	load := opt
	load.FlowWorkers = 8
	load.LoadDesign = path
	res, err := Run(context.Background(), src, ConfigHetero, load)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ppacBytes(t, res.PPAC), ppacBytes(t, base.PPAC); !bytes.Equal(got, want) {
		t.Errorf("PPAC after workers=8 resume differs from workers=1 baseline:\n got %+v\nwant %+v", res.PPAC, base.PPAC)
	}
}

// TestNetlistExportImportIdentity round-trips a mid-flow netlist through
// its snapshot: import must rebuild an equivalent design whose own
// export encodes to the same bytes.
func TestNetlistExportImportIdentity(t *testing.T) {
	src := genSrc(t, designs.CPU, 0.03)
	opt := DefaultOptions(testClock)
	opt.StopAfter = StagePlace
	res, err := Run(context.Background(), src, ConfigHetero, opt)
	if err != nil {
		t.Fatal(err)
	}
	snapBytes := func(snap *netlist.Snapshot) []byte {
		w := db.NewWriter()
		db.PutNetlist(w, snap)
		return w.Bytes()
	}
	snap := res.Design.ExportState()
	first := snapBytes(snap)
	d2, err := netlist.ImportState(snap)
	if err != nil {
		t.Fatal(err)
	}
	second := snapBytes(d2.ExportState())
	if !bytes.Equal(first, second) {
		t.Fatalf("export→import→export not identical (%d vs %d bytes)", len(first), len(second))
	}
}

// TestLoadDesignErrors covers the loader's refusal paths: a fingerprint
// from different options, a design-name mismatch, and a corrupted file.
func TestLoadDesignErrors(t *testing.T) {
	src := genSrc(t, designs.AES, 0.04)
	opt := DefaultOptions(testClock)
	opt.StopAfter = StagePlace
	path := filepath.Join(t.TempDir(), "d.db")
	opt.SaveDesign = path
	opt.SaveAfter = StagePlace
	if _, err := Run(context.Background(), src, Config2D12T, opt); err != nil {
		t.Fatal(err)
	}

	load := DefaultOptions(testClock)
	load.LoadDesign = path
	load.RepairRounds++ // shapes the trajectory → fingerprint differs
	if _, err := Run(context.Background(), src, Config2D12T, load); !errors.Is(err, ErrOptionsMismatch) {
		t.Errorf("changed options: got %v, want ErrOptionsMismatch", err)
	}

	load = DefaultOptions(testClock)
	load.LoadDesign = path
	if _, err := Run(context.Background(), src, ConfigHetero, load); err == nil {
		t.Error("loading a 2D-12T save into the hetero flow should fail")
	}

	other := genSrc(t, designs.CPU, 0.03)
	if _, err := Run(context.Background(), other, Config2D12T, load); err == nil {
		t.Error("loading another design's save should fail")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	badPath := filepath.Join(t.TempDir(), "bad.db")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	load.LoadDesign = badPath
	if _, err := Run(context.Background(), src, Config2D12T, load); !errors.Is(err, db.ErrCorrupt) {
		t.Errorf("bit-flipped file: got %v, want ErrCorrupt", err)
	}
}

func TestParseSaveAfter(t *testing.T) {
	set, err := parseSaveAfter("")
	if err != nil || !set[StagePlace] || len(set) != 1 {
		t.Errorf("default: %v %v", set, err)
	}
	set, err = parseSaveAfter("map, cts")
	if err != nil || !set[StageMap] || !set[StageCTS] || len(set) != 2 {
		t.Errorf("list: %v %v", set, err)
	}
	if _, err := parseSaveAfter("synth"); err == nil {
		t.Error("synth is not a boundary")
	}
	if _, err := parseSaveAfter(","); err == nil {
		t.Error("empty list should fail")
	}
}

func TestSavePathFor(t *testing.T) {
	if got := savePathFor("out/d.db", StageCTS, false); got != "out/d.db" {
		t.Errorf("single: %q", got)
	}
	if got := savePathFor("out/d.db", StageCTS, true); got != "out/d-cts.db" {
		t.Errorf("multi: %q", got)
	}
	if got := savePathFor("out/d", StageMap, true); got != "out/d-map" {
		t.Errorf("no ext: %q", got)
	}
}

// TestStopAfter checks the truncation option on its own: the flow ends
// at the named stage with partial results and no sign-off record.
func TestStopAfter(t *testing.T) {
	src := genSrc(t, designs.AES, 0.04)
	opt := DefaultOptions(testClock)
	opt.StopAfter = StageLegalize
	res, err := Run(context.Background(), src, Config2D12T, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.PPAC != nil {
		t.Error("stopped flow should have no PPAC")
	}
	if n := len(res.Stages); n != 4 {
		t.Errorf("expected 4 executed stages, got %d", n)
	}
	opt.StopAfter = "nope"
	if _, err := Run(context.Background(), src, Config2D12T, opt); err == nil {
		t.Error("unknown stop stage should fail")
	}
}

var signoffDB struct {
	sync.Once
	data []byte
	err  error
}

// signoffDBBytes saves the smallest ldpc netlist, run through the
// Hetero-M3D flow with checks on, at the signoff boundary, so the file
// carries every section kind: META, NETL, PLAC, CTSR, STAR, CHKS, STGS,
// PPAC and POWR.
func signoffDBBytes(tb testing.TB) []byte {
	tb.Helper()
	signoffDB.Do(func() {
		src, err := designs.Generate(designs.LDPC, lib12, designs.Params{Scale: 0.001, Seed: 1})
		if err != nil {
			signoffDB.err = err
			return
		}
		path := filepath.Join(tb.TempDir(), "ldpc.db")
		opt := DefaultOptions(testClock)
		opt.Check = CheckFast
		opt.CheckReportOnly = true
		opt.SaveDesign = path
		opt.SaveAfter = StageSignoff
		if _, err := Run(context.Background(), src, ConfigHetero, opt); err != nil {
			signoffDB.err = err
			return
		}
		signoffDB.data, signoffDB.err = os.ReadFile(path)
	})
	if signoffDB.err != nil {
		tb.Fatal(signoffDB.err)
	}
	return signoffDB.data
}

// TestLoadSkipsRetiredRouteSection splices a ROUT frame, in the layout
// earlier builds wrote (every net's extraction-cache entry, between STAR
// and CHKS), into a signoff database. Readers skip the retired section
// as an unknown tag: the file loads and resumes to the same PPAC bytes
// as the file without it. It is no longer canonical, because a
// re-encode drops the section.
func TestLoadSkipsRetiredRouteSection(t *testing.T) {
	data := signoffDBBytes(t)
	dd, err := decodeDesignDB(data)
	if err != nil {
		t.Fatal(err)
	}
	w := db.NewWriter()
	w.PutU32(uint32(len(dd.d.Nets)))
	r := route.New()
	for _, n := range dd.d.Nets {
		rc := r.Extract(n)
		w.PutI32(int32(n.ID))
		w.PutU64(dd.d.NetRev(n))
		w.PutF64(rc.WireLen)
		w.PutF64(rc.WireCap)
		w.PutF64s(rc.SinkR)
		w.PutF64s(rc.SinkCapShare)
		w.PutI32(int32(rc.MIVs))
	}
	frame, err := db.AppendFrame(nil, "ROUT", w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, infos, err := db.List(data)
	if err != nil {
		t.Fatal(err)
	}
	at := -1
	for _, info := range infos {
		if info.Tag == db.TagChecks {
			at = info.Offset - 8 // the frame's tag and length precede its payload
		}
	}
	if at < 0 {
		t.Fatal("signoff database has no CHKS section")
	}
	spliced := slices.Concat(data[:at], frame, data[at:])

	if err := VerifyDesignFile(spliced); !errors.Is(err, db.ErrCorrupt) {
		t.Errorf("verify of a file holding ROUT: got %v, want a non-canonical ErrCorrupt", err)
	}
	src, err := designs.Generate(designs.LDPC, lib12, designs.Params{Scale: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resume := func(file []byte) []byte {
		path := filepath.Join(t.TempDir(), "ldpc.db")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions(testClock)
		opt.Check = CheckFast
		opt.CheckReportOnly = true
		opt.LoadDesign = path
		res, err := Run(context.Background(), src, ConfigHetero, opt)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		return ppacBytes(t, res.PPAC)
	}
	want := resume(data)
	if want == nil {
		t.Fatal("resumed signoff file has no PPAC")
	}
	if got := resume(spliced); !bytes.Equal(got, want) {
		t.Error("a signoff file holding ROUT resumed to different PPAC bytes")
	}
}

// TestSignoffPowerReadsTimerStore pins the flow's sign-off wiring:
// power analysis reads the RC store the timing session filled, so the
// signoff stage hits once per instance-driven signal net and misses
// once per instance-driven clock net, which timing leaves unextracted.
// Sign-off power with an extraction source of its own leaves both
// counters at zero.
func TestSignoffPowerReadsTimerStore(t *testing.T) {
	dd, err := decodeDesignDB(signoffDBBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	var signal, clock int64
	for _, inst := range dd.d.Instances {
		if out := dd.d.OutputNet(inst); out != nil && out.IsClock {
			clock++
		} else if out != nil {
			signal++
		}
	}
	last := dd.metrics[len(dd.metrics)-1]
	if last.Name != StageSignoff {
		t.Fatalf("last stage metric is %s, want %s", last.Name, StageSignoff)
	}
	if got := last.Stats[flow.StatRCHits]; got != signal {
		t.Errorf("signoff rc_hits = %d, want %d (instance-driven signal nets)", got, signal)
	}
	if got := last.Stats[flow.StatRCMisses]; got != clock || clock == 0 {
		t.Errorf("signoff rc_misses = %d, want %d (instance-driven clock nets, at least one)", got, clock)
	}
}

// TestDesignDBTruncationMatrix decodes every strict prefix of every
// section payload of a real signoff database, and each payload plus one
// trailing byte: every one must fail with ErrCorrupt, never panic. It
// pins the sticky-error reader's contract that a short read is never
// silently a zero value and a long payload is never silently accepted.
func TestDesignDBTruncationMatrix(t *testing.T) {
	data := signoffDBBytes(t)
	full, err := decodeDesignDB(data)
	if err != nil {
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
			dd := *full
			r := db.NewReader(in)
			if !dd.readSection(info.Tag, r) {
				t.Fatalf("%s: unknown section", info.Tag)
			}
			if err := r.Done(info.Tag); !errors.Is(err, db.ErrCorrupt) {
				t.Fatalf("%s: %d of %d bytes decoded with %v, want ErrCorrupt", info.Tag, len(in), len(payload), err)
			}
		}
	}
	for _, tag := range []string{tagMeta, db.TagNetlist, db.TagFloorplan, db.TagCTS, db.TagSTA,
		db.TagChecks, tagStages, tagPPAC, tagPower} {
		if !seen[tag] {
			t.Errorf("signoff database has no %s section", tag)
		}
	}
}
