package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/db"
)

// refreshCRCs returns data with the CRC of every complete frame
// recomputed, so a mutated payload byte reaches the section decoders
// instead of stopping at the checksum.
func refreshCRCs(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 8; off+8 <= len(out); {
		end := off + 8 + int(binary.LittleEndian.Uint32(out[off+4:]))
		if end+4 > len(out) {
			break
		}
		binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[off+8:end]))
		off = end + 4
	}
	return out
}

// FuzzDesignFile feeds arbitrary bytes to the design-database verifier
// and the META reader, both as given and with every frame's CRC made
// valid. It reaches what FuzzDBDecode in internal/db cannot: CTSR
// against a real restored netlist, and the flow-owned META, STGS, PPAC
// and POWR sections. The contract: neither panics, and every failure is
// typed ErrCorrupt or ErrVersion.
//
// The seed is a real database of about 110 KB, and the fuzzer spends up
// to -fuzzminimizetime (default 60 s) shrinking each new input that
// large; short runs should lower it:
//
//	go test -run xxx -fuzz FuzzDesignFile -fuzztime 60s -fuzzminimizetime 2s ./internal/core/
func FuzzDesignFile(f *testing.F) {
	f.Add(signoffDBBytes(f))
	f.Add(db.Header(db.MagicDesign))

	typed := func(err error) bool {
		return err == nil || errors.Is(err, db.ErrCorrupt) || errors.Is(err, db.ErrVersion)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, refreshCRCs(data)} {
			if err := VerifyDesignFile(in); !typed(err) {
				t.Fatalf("VerifyDesignFile: untyped error %v", err)
			}
			if _, _, _, err := DesignFileInfo(in); !typed(err) {
				t.Fatalf("DesignFileInfo: untyped error %v", err)
			}
		}
	})
}
