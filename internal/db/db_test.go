package db

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// primSection exercises every primitive the Writer/Reader pair offers.
type primSection struct {
	u8   uint8
	b    bool
	u32  uint32
	u64  uint64
	i32  int32
	i64  int64
	f64  float64
	raw  []byte
	str  string
	f64s []float64
	u64s []uint64
	i32s []int32
}

func putPrim(w *Writer, s *primSection) {
	w.PutU8(s.u8)
	w.PutBool(s.b)
	w.PutU32(s.u32)
	w.PutU64(s.u64)
	w.PutI32(s.i32)
	w.PutI64(s.i64)
	w.PutF64(s.f64)
	w.PutBytes(s.raw)
	w.PutString(s.str)
	w.PutF64s(s.f64s)
	w.PutU64s(s.u64s)
	w.PutI32s(s.i32s)
}

func readPrim(r *Reader) *primSection {
	return &primSection{
		u8: r.U8(), b: r.Bool(), u32: r.U32(), u64: r.U64(), i32: r.I32(), i64: r.I64(), f64: r.F64(),
		raw: r.Bytes(), str: r.String(), f64s: r.F64s(), u64s: r.U64s(), i32s: r.I32s(),
	}
}

// testFile frames each value as one PRIM section of a design file.
func testFile(t *testing.T, secs ...*primSection) []byte {
	t.Helper()
	data := Header(MagicDesign)
	for _, s := range secs {
		w := NewWriter()
		putPrim(w, s)
		var err error
		if data, err = AppendFrame(data, "PRIM", w.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	return data
}

// decodePrims decodes every PRIM section of a design file.
func decodePrims(data []byte) ([]*primSection, error) {
	var out []*primSection
	err := Decode(data, MagicDesign, func(tag string, r *Reader) bool {
		if tag != "PRIM" {
			return false
		}
		out = append(out, readPrim(r))
		return true
	})
	return out, err
}

func TestPrimitivesRoundTrip(t *testing.T) {
	in := &primSection{
		u8: 0xab, b: true, u32: 1 << 31, u64: 1 << 60,
		i32: -12345, i64: -1 << 50, f64: -math.Pi,
		raw: []byte{0, 1, 2, 255}, str: "hello, 3-D world",
		f64s: []float64{0, -1.5, math.Inf(1)},
		u64s: []uint64{7, 8},
		i32s: []int32{-1, 0, 1},
	}
	data := testFile(t, in)

	outs, err := decodePrims(data)
	if err != nil || len(outs) != 1 {
		t.Fatalf("decoded %d sections, err %v", len(outs), err)
	}
	out := outs[0]
	// Encode the decoded value again: byte identity is the contract.
	if again := testFile(t, out); !bytes.Equal(again, data) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(again), len(data))
	}
	if out.str != in.str || out.u64 != in.u64 || !math.Signbit(out.f64) {
		t.Fatalf("decoded %+v", out)
	}
}

func TestEmptySlicesStayNil(t *testing.T) {
	outs, err := decodePrims(testFile(t, &primSection{}))
	if err != nil {
		t.Fatal(err)
	}
	out := outs[0]
	if out.raw != nil || out.f64s != nil || out.u64s != nil || out.i32s != nil {
		t.Fatalf("zero-length slices must decode to nil: %+v", out)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := testFile(t, &primSection{str: "x", f64s: []float64{1, 2}})
	nop := func(string, *Reader) bool { return false }

	cases := map[string][]byte{
		"empty":        {},
		"short header": valid[:4],
		"bad magic":    append([]byte("XXXX"), valid[4:]...),
	}
	for name, data := range cases {
		if err := Decode(data, MagicDesign, nop); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}

	// Wrong version is its own error class.
	future := append([]byte(nil), valid...)
	future[4] = FormatVersion + 1
	if err := Decode(future, MagicDesign, nop); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: got %v, want ErrVersion", err)
	}

	// A complete frame with a flipped payload bit fails its CRC.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-6] ^= 1
	if err := Decode(flipped, MagicDesign, nop); !errors.Is(err, ErrCorrupt) {
		t.Errorf("crc: got %v, want ErrCorrupt", err)
	}

	// Truncation inside the last frame is the distinguished corrupt
	// subclass the journal reader tolerates.
	trunc := valid[:len(valid)-3]
	if err := Decode(trunc, MagicDesign, nop); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: got %v, want ErrTruncated", err)
	}

	// A section that leaves payload bytes unread is corrupt, as is one
	// whose decode fails partway.
	shortDecode := func(_ string, r *Reader) bool { r.U8(); return true }
	if err := Decode(valid, MagicDesign, shortDecode); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: got %v, want ErrCorrupt", err)
	}
	overRead := func(_ string, r *Reader) bool { readPrim(r); r.U64(); return true }
	if err := Decode(valid, MagicDesign, overRead); !errors.Is(err, ErrCorrupt) {
		t.Errorf("over-read: got %v, want ErrCorrupt", err)
	}
}

func TestUnknownSectionsSkipped(t *testing.T) {
	data := testFile(t, &primSection{u32: 9}, &primSection{u32: 10})
	var seen int
	var got *primSection
	err := Decode(data, MagicDesign, func(tag string, r *Reader) bool {
		seen++
		if seen == 1 {
			return false // skip the first, leaving its payload unread
		}
		got = readPrim(r)
		return true
	})
	if err != nil || seen != 2 || got.u32 != 10 {
		t.Fatalf("err=%v seen=%d got=%+v", err, seen, got)
	}
}

func TestList(t *testing.T) {
	data := testFile(t, &primSection{raw: make([]byte, 100)})
	magic, infos, err := List(data)
	if err != nil {
		t.Fatal(err)
	}
	if magic != MagicDesign || len(infos) != 1 || infos[0].Tag != "PRIM" || infos[0].Len < 100 {
		t.Fatalf("magic %q infos %+v", magic, infos)
	}
	if _, _, err := List([]byte("bogus!")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bogus list: %v", err)
	}
}

func TestCountGuardsAllocation(t *testing.T) {
	// A frame claiming 2^31 elements of 8 bytes each must fail cleanly
	// (not allocate), because the payload cannot possibly hold them.
	w := NewWriter()
	w.PutU32(1 << 31)
	r := NewReader(w.Bytes())
	if v := r.F64s(); v != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("oversized count: %v, %v", v, r.Err())
	}
}

// TestReaderStickyError pins the sticky-error contract: the first
// failure wins, later reads return zero values (counts included, so a
// loop they bound does not run), and Done reports that first error.
func TestReaderStickyError(t *testing.T) {
	w := NewWriter()
	w.PutU8(2) // not a canonical bool
	w.PutU32(3)
	w.PutF64(1.5)
	r := NewReader(w.Bytes())
	if r.Bool() || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("bool byte 2: %v", r.Err())
	}
	first := r.Err()
	r.Corruptf("a later validation failure")
	if r.Count(1) != 0 || r.F64() != 0 || r.String() != "" || r.Bytes() != nil || r.Err() != first {
		t.Fatalf("reads after an error must return zero values and keep the first error, got %v", r.Err())
	}
	if err := r.Done("probe"); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bool byte 2") {
		t.Fatalf("Done = %v, want the first error", err)
	}
	// Truncation is an error; an exact read is not.
	if r := NewReader([]byte{1, 2, 3}); r.U32() != 0 || !errors.Is(r.Done("short"), ErrCorrupt) {
		t.Fatal("a 3-byte U32 must fail")
	}
	if r := NewReader([]byte{1, 0, 0, 0}); r.U32() != 1 || r.Done("exact") != nil {
		t.Fatal("an exact U32 must succeed")
	}
}

// TestCountLoopsStopAtFirstError: a header may claim as many elements
// as the payload has bytes, and a first element that fails to decode
// must end the loop there. Were the loop to run on to the claimed count
// on zero values, each iteration would still allocate an element, so a
// 64 MB payload could cost gigabytes before the decode returned.
func TestCountLoopsStopAtFirstError(t *testing.T) {
	const claimed = 1 << 12
	payload := func(minElem int, prefix func(w *Writer)) []byte {
		w := NewWriter()
		prefix(w)
		w.PutU32(claimed)
		// 0xFF bytes: the first element's leading count or string length
		// reads as 2³²-1, which the remaining bytes cannot hold.
		return append(w.Bytes(), bytes.Repeat([]byte{0xFF}, claimed*minElem)...)
	}
	cases := []struct {
		name   string
		data   []byte
		decode func(r *Reader)
	}{
		{"netlist masters", payload(1, func(w *Writer) { w.PutString("top") }),
			func(r *Reader) { ReadNetlist(r) }},
		{"nldm rows", payload(4, func(w *Writer) { w.PutBool(true); w.PutF64s(nil); w.PutF64s(nil) }),
			func(r *Reader) { readNLDM(r) }},
		{"check reports", payload(16, func(w *Writer) { w.PutBool(false); w.PutString(""); w.PutU64(0); w.PutI32(0); w.PutI32(0) }),
			func(r *Reader) { ReadChecks(r) }},
		{"check rule stats", payload(17, func(w *Writer) { w.PutString("d"); w.PutString("s") }),
			func(r *Reader) { ReadCheckReport(r) }},
	}
	for _, tc := range cases {
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(tc.data)
		tc.decode(r)
		err = r.Done(tc.name)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
		if heap := after.TotalAlloc - before.TotalAlloc; heap > 4<<10 {
			t.Errorf("%s: %d heap bytes for a header claiming %d elements; the loop must stop at the first failed element", tc.name, heap, claimed)
		}
	}
}
