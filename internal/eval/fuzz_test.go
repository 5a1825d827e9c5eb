package eval

import (
	"errors"
	"testing"

	"repro/internal/db"
)

// FuzzJournal feeds arbitrary bytes to the journal verifier and its
// text renderer. The contract: neither panics, every failure is typed
// ErrCorrupt, ErrVersion or ErrFarmJournal, and the two agree on what
// they refuse — they parse exactly as resume does.
func FuzzJournal(f *testing.F) {
	data := testJournal(f)
	f.Add(data)
	f.Add(data[:len(data)-5]) // a killed final append
	f.Add(db.Header(db.MagicJournal))
	f.Add([]byte(db.MagicDesign))

	f.Fuzz(func(t *testing.T, data []byte) {
		verr := VerifyJournal(data)
		if verr != nil && !errors.Is(verr, db.ErrCorrupt) && !errors.Is(verr, db.ErrVersion) && !errors.Is(verr, ErrFarmJournal) {
			t.Fatalf("VerifyJournal: untyped error %v", verr)
		}
		if _, err := JournalLines(data); (err == nil) != (verr == nil) {
			t.Fatalf("JournalLines err %v, VerifyJournal err %v", err, verr)
		}
	})
}
