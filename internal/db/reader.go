package db

import (
	"fmt"
	"math"
)

// Reader is the bounds-checked decode counterpart of Writer. It carries
// a sticky error: the first failed read (truncation, an out-of-range
// count, a non-canonical bool) is recorded, every later read returns
// the zero value, and Err reports that first error. A decoder therefore
// reads its fields straight through and checks Err where it needs a
// value to be real — before indexing or allocating with it — and at the
// end (Done). Element counts are capped against the bytes actually
// present, and read 0 once an error is set, so an adversarial header
// claiming 2³¹ elements cannot force a huge allocation or a panic; and
// every Count-bounded loop runs under More, so an element that fails to
// decode ends the loop instead of letting the remaining iterations
// append zero values up to the claimed count.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader reads from data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// remaining returns the number of unread bytes.
func (r *Reader) remaining() int { return len(r.data) - r.off }

// Err returns the first error the reader recorded, or nil.
func (r *Reader) Err() error { return r.err }

// Corruptf records an ErrCorrupt-wrapping validation failure unless an
// error is already set: the first error wins.
func (r *Reader) Corruptf(format string, args ...any) {
	if r.err == nil {
		r.err = Corruptf(format, args...)
	}
}

// Done finishes an exact-length decode of what: it returns the first
// recorded error, or ErrCorrupt if payload bytes remain unread, with
// what as context. Every decoder of a whole payload ends with it.
func (r *Reader) Done(what string) error {
	err := r.err
	if err == nil && r.remaining() != 0 {
		err = Corruptf("%d trailing bytes", r.remaining())
	}
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// take consumes n bytes, or records a truncation and returns nil.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.err = Corruptf("need %d bytes, %d remain", n, r.remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte as a bool; any value other than 0 or 1 is
// corrupt (a canonical encoder only emits those).
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Corruptf("bool byte %d", v)
		return false
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return leU32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return leU64(b)
	}
	return 0
}

// I32 reads a two's-complement int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 element count and validates it against the bytes
// remaining: each element needs at least elemSize bytes, so a count
// exceeding the unread bytes / elemSize is corrupt. elemSize must be >= 1
// (variable-size elements pass their minimum encoding size). After any
// error Count returns 0, so a loop it bounds does not run; a loop over
// the elements tests More, so it also stops at the first element that
// fails.
func (r *Reader) Count(elemSize int) int {
	if elemSize < 1 {
		elemSize = 1
	}
	n := int(r.U32())
	if n > r.remaining()/elemSize {
		r.Corruptf("count %d exceeds remaining input (%d bytes, >= %d each)", n, r.remaining(), elemSize)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// More is the condition of a Count-bounded loop: it reports whether
// element i of n is still to be read, i.e. i < n and no error has been
// recorded. A decode loop that appends per element must use it, or a
// truncated first element would leave the loop appending a zero value
// for each of the n-1 elements the header claimed.
func (r *Reader) More(i, n int) bool { return i < n && r.err == nil }

// raw reads a counted byte run, aliasing the reader's backing array.
func (r *Reader) raw() []byte { return r.take(r.Count(1)) }

// Bytes reads a counted byte slice (a copy — the reader's backing array
// is not aliased).
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.raw()...) }

// String reads a counted string.
func (r *Reader) String() string { return string(r.raw()) }

// F64s reads a counted slice of float64 (nil when the count is 0, so
// empty slices round-trip canonically).
func (r *Reader) F64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// U64s reads a counted slice of uint64 (nil when the count is 0).
func (r *Reader) U64s() []uint64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I32s reads a counted slice of int32 (nil when the count is 0).
func (r *Reader) I32s() []int32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.I32()
	}
	return out
}
