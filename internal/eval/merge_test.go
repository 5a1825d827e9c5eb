package eval

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/flow"
)

// testFlowResult builds a small but fully populated flow result for
// journal tests; vary freq to make two results provably different.
func testFlowResult(design string, cfg core.ConfigName, freq float64) *core.Result {
	return &core.Result{
		PPAC: &core.PPAC{Design: design, Config: cfg, FreqGHz: freq,
			PowerMW: 12.5, WNS: -0.031, WLm: 0.25},
		Stages: []flow.StageMetric{{Name: "place", Cells: 1234,
			Stats: map[string]int64{flow.StatCongestionRetries: 1}}},
	}
}

// TestLeaseRoundTrip proves the full lease lifecycle survives a journal
// round trip, interleaved with work records. The path's extension does
// not choose the framing: a ".jsonl" name still gets a binary journal.
func TestLeaseRoundTrip(t *testing.T) {
	for _, ext := range []string{".jsonl", ".db"} {
		t.Run(ext, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "farm"+ext)
			opt := ckptOpts()
			ck, err := OpenCheckpoint(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			leases := []Lease{
				{Shard: 0, Action: LeaseGrant, Owner: "s0-a1", Attempt: 1,
					Units: []Unit{{Design: designs.CPU, Config: core.ConfigHetero}}},
				{Shard: 0, Action: LeaseRenew, Owner: "s0-a1", Attempt: 1},
				{Shard: 0, Action: LeaseExpire, Owner: "s0-a1", Attempt: 1, Reason: "signal: killed"},
				{Shard: 1, Action: LeaseQuarantine, Owner: "s1-a1", Attempt: 1, Reason: "crc mismatch"},
				{Shard: 0, Action: LeaseGrant, Owner: "s0-a2", Attempt: 2,
					Units: []Unit{{Design: designs.CPU, Config: core.ConfigHetero}}},
				{Shard: 0, Action: LeaseRelease, Owner: "s0-a2", Attempt: 2},
			}
			for i, l := range leases {
				if i == 2 { // a work record between coordination records
					if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
						t.Fatal(err)
					}
				}
				if err := ck.PutLease(l); err != nil {
					t.Fatal(err)
				}
			}
			if err := ck.PutLease(Lease{Shard: 9, Action: "bogus"}); err == nil {
				t.Fatal("invalid lease action accepted")
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}

			if data, err := os.ReadFile(path); err != nil {
				t.Fatal(err)
			} else if string(data[:4]) != db.MagicJournal {
				t.Fatalf("%s journal magic %q, want %q", ext, data[:4], db.MagicJournal)
			}

			ck2, err := OpenCheckpoint(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer ck2.Close()
			got := ck2.Leases()
			if len(got) != len(leases) {
				t.Fatalf("reloaded %d leases, want %d", len(got), len(leases))
			}
			for i := range leases {
				want := leases[i]
				g := got[i]
				if g.Shard != want.Shard || g.Action != want.Action || g.Owner != want.Owner ||
					g.Attempt != want.Attempt || g.Reason != want.Reason || len(g.Units) != len(want.Units) {
					t.Errorf("lease %d = %+v, want %+v", i, g, want)
				}
				for j := range want.Units {
					if g.Units[j] != want.Units[j] {
						t.Errorf("lease %d unit %d = %v, want %v", i, j, g.Units[j], want.Units[j])
					}
				}
			}
			if _, _, ok := ck2.Fmax(designs.CPU); !ok {
				t.Error("work record lost among leases")
			}
		})
	}
}

// TestMergeCheckpoints proves the merge invariants: shard journals in
// any order, with overlapping (identical) records and interleaved
// leases, merge to byte-identical canonical journals equal to what a
// single journal holding the same records contains. Whatever the
// extension, the merged journal is binary.
func TestMergeCheckpoints(t *testing.T) {
	for _, ext := range []string{".jsonl", ".db"} {
		t.Run(ext, func(t *testing.T) {
			dir := t.TempDir()
			opt := ckptOpts()
			cpuFlow := testFlowResult("cpu", core.ConfigHetero, 0.4375)
			aesFlow := testFlowResult("aes", core.Config2D12T, 0.9)

			// Shard A: cpu fmax + cpu flow, plus coordination noise.
			a := filepath.Join(dir, "shard-a"+ext)
			ckA, err := OpenCheckpoint(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := ckA.PutLease(Lease{Shard: 0, Action: LeaseGrant, Owner: "s0-a1", Attempt: 1}); err != nil {
				t.Fatal(err)
			}
			if err := ckA.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
				t.Fatal(err)
			}
			if err := ckA.PutFlow(designs.CPU, core.ConfigHetero, cpuFlow); err != nil {
				t.Fatal(err)
			}
			ckA.Close()

			// Shard B: aes work plus a DUPLICATE of the cpu fmax record
			// (two shards sharing a design both compute its target).
			b := filepath.Join(dir, "shard-b"+ext)
			ckB, err := OpenCheckpoint(b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := ckB.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
				t.Fatal(err)
			}
			if err := ckB.PutFmax(designs.AES, 900, 0.9); err != nil {
				t.Fatal(err)
			}
			if err := ckB.PutFlow(designs.AES, core.Config2D12T, aesFlow); err != nil {
				t.Fatal(err)
			}
			ckB.Close()

			m1 := filepath.Join(dir, "merged1"+ext)
			if err := MergeCheckpoints(m1, opt, a, b); err != nil {
				t.Fatal(err)
			}
			m2 := filepath.Join(dir, "merged2"+ext)
			if err := MergeCheckpoints(m2, opt, b, a); err != nil {
				t.Fatal(err)
			}
			d1, _ := os.ReadFile(m1)
			d2, _ := os.ReadFile(m2)
			if !bytes.Equal(d1, d2) {
				t.Error("merge is source-order dependent")
			}
			if string(d1[:4]) != db.MagicJournal {
				t.Fatalf("%s merged journal magic %q, want %q", ext, d1[:4], db.MagicJournal)
			}

			// The merged journal resumes cleanly and holds everything.
			ck, err := OpenCheckpoint(m1, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer ck.Close()
			if _, _, ok := ck.Fmax(designs.CPU); !ok {
				t.Error("cpu fmax missing after merge")
			}
			if _, _, ok := ck.Fmax(designs.AES); !ok {
				t.Error("aes fmax missing after merge")
			}
			if _, ok := ck.Flow(designs.CPU, core.ConfigHetero); !ok {
				t.Error("cpu flow missing after merge")
			}
			if _, ok := ck.Flow(designs.AES, core.Config2D12T); !ok {
				t.Error("aes flow missing after merge")
			}
			if n := len(ck.Leases()); n != 0 {
				t.Errorf("%d lease records leaked into the merged journal", n)
			}
		})
	}
}

// TestMergeRefusesDivergentDuplicates proves the merge never picks a
// winner between conflicting duplicates, down to a one-ULP f_max
// difference.
func TestMergeRefusesDivergentDuplicates(t *testing.T) {
	dir := t.TempDir()
	opt := ckptOpts()
	write := func(name string, fmax float64) string {
		path := filepath.Join(dir, name)
		ck, err := OpenCheckpoint(path, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.PutFmax(designs.CPU, 1234, fmax); err != nil {
			t.Fatal(err)
		}
		ck.Close()
		return path
	}
	a := write("a.db", 0.4375)
	b := write("b.db", math.Nextafter(0.4375, 1)) // diverged: determinism bug or corruption
	err := MergeCheckpoints(filepath.Join(dir, "m.db"), opt, a, b)
	if err == nil || !strings.Contains(err.Error(), "divergent duplicate") {
		t.Fatalf("divergent duplicate accepted: %v", err)
	}
}

// TestMergeRefusesForeignHeader proves a shard journal written under
// different options cannot sneak into a merge.
func TestMergeRefusesForeignHeader(t *testing.T) {
	dir := t.TempDir()
	opt := ckptOpts()
	foreign := opt
	foreign.Seed = 99
	path := filepath.Join(dir, "foreign.db")
	ck, err := OpenCheckpoint(path, foreign)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	err = MergeCheckpoints(filepath.Join(dir, "m.db"), opt, path)
	if err == nil || !strings.Contains(err.Error(), "different suite options") {
		t.Fatalf("foreign header accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "seed") {
		t.Errorf("mismatch error does not name the differing field: %v", err)
	}
}

// TestOptionMismatchNamesFields pins the satellite contract: the
// option-mismatch refusal reports exactly which header fields differ,
// with both values, and nothing about fields that agree.
func TestOptionMismatchNamesFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	opt := ckptOpts()
	ck, err := OpenCheckpoint(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	other := opt
	other.Scale = 0.25
	other.Seed = 7
	other.Check = core.CheckFull
	_, err = OpenCheckpoint(path, other)
	if err == nil {
		t.Fatal("mismatched options accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		"scale: file 0.05, run 0.25",
		"seed: file 1, run 7",
		"check mode: file off, run full",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing clause %q", msg, want)
		}
	}
	for _, stray := range []string{"design set", "config set", "fmax iterations", "format version"} {
		if strings.Contains(msg, stray) {
			t.Errorf("error %q names agreeing field %q", msg, stray)
		}
	}

	// A design-set difference is named with both sets.
	narrowed := opt
	narrowed.Designs = []designs.Name{designs.CPU}
	_, err = OpenCheckpoint(path, narrowed)
	if err == nil || !strings.Contains(err.Error(), "design set") {
		t.Errorf("design-set mismatch not named: %v", err)
	}
}

// TestJournalStatus exercises the shard planner's resume probe.
func TestJournalStatus(t *testing.T) {
	dir := t.TempDir()
	opt := ckptOpts()
	path := filepath.Join(dir, "shard.db")
	units := []Unit{
		{Design: designs.CPU, Config: core.ConfigHetero},
		{Design: designs.CPU, Config: core.Config2D12T},
	}
	sopt := opt
	sopt.Units = units

	// Missing file: everything missing.
	done, missing, missingFmax, err := JournalStatus(path, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 || len(missing) != 2 || len(missingFmax) != 1 {
		t.Fatalf("fresh: done=%v missing=%v missingFmax=%v", done, missing, missingFmax)
	}

	ck, err := OpenCheckpoint(path, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFlow(designs.CPU, core.ConfigHetero, testFlowResult("cpu", core.ConfigHetero, 0.4375)); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	done, missing, missingFmax, err = JournalStatus(path, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0] != units[0] {
		t.Errorf("done = %v", done)
	}
	if len(missing) != 1 || missing[0] != units[1] {
		t.Errorf("missing = %v", missing)
	}
	if len(missingFmax) != 0 {
		t.Errorf("missingFmax = %v", missingFmax)
	}

	// The unit filter scopes the probe: a different shard's unit list
	// sees its own work as missing, not this shard's as done.
	other := opt
	other.Units = []Unit{{Design: designs.AES, Config: core.Config2D12T}}
	done, missing, _, err = JournalStatus(path, other)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 || len(missing) != 1 {
		t.Errorf("foreign units: done=%v missing=%v", done, missing)
	}
}
