// Package dense holds the dense-index storage primitives the hot layers
// share: capacity-reusing slice growth and CSR (offsets + flat payload)
// jagged arrays. The refactored kernels iterate int32 indices over flat
// memory instead of chasing per-element pointers; this package keeps
// that idiom in one place.
package dense

// Grow returns s with length n, reusing its backing array when the
// capacity suffices and reallocating otherwise. Reallocating a non-empty
// slice reserves growSlack headroom past n, so a buffer that tracks a
// slowly growing design (a buffer inserted between two timing updates)
// reallocates once per growth spurt instead of on every call; a first
// allocation is exact. The contents are unspecified; callers must
// initialize every element they read.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	if len(s) == 0 {
		return make([]T, n)
	}
	return make([]T, n, n+n/growSlack)
}

// growSlack sets Grow's reallocation headroom to n/growSlack (12.5 %).
const growSlack = 8

// Reserve returns s with room for n more elements, reallocating to
// exactly len(s)+n when the capacity falls short. slices.Grow appends
// n elements past the current capacity instead, which can nearly double
// a reused buffer that is only slightly too small.
func Reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	ns := make([]T, len(s), len(s)+n)
	copy(ns, s)
	return ns
}

// Zero returns s with length n and every element set to the zero value,
// reusing the backing array like Grow.
func Zero[T any](s []T, n int) []T {
	s = Grow(s, n)
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// CSR is a jagged array in compressed-sparse-row form: row r's elements
// are Dat[Off[r]:Off[r+1]]. Building is two-pass — Count every element's
// row, Seal, then Append the elements in their final order — and reuses
// prior storage across builds, so a rebuilt CSR allocates nothing once
// warm.
type CSR[T any] struct {
	Off []int32
	Dat []T
	cur []int32
}

// Reset prepares the CSR for n rows with all counts zero.
func (c *CSR[T]) Reset(n int) { c.Off = Zero(c.Off, n+1) }

// Count registers one element on row r (first pass).
func (c *CSR[T]) Count(r int32) { c.Off[r+1]++ }

// Seal turns the counts into offsets and sizes the payload; call once
// between the counting and appending passes.
func (c *CSR[T]) Seal() {
	n := len(c.Off) - 1
	for i := 0; i < n; i++ {
		c.Off[i+1] += c.Off[i]
	}
	c.Dat = Grow(c.Dat, int(c.Off[n]))
	c.cur = Grow(c.cur, n)
	copy(c.cur, c.Off[:n])
}

// Append places v on row r (second pass, preserving call order within
// the row).
func (c *CSR[T]) Append(r int32, v T) {
	c.Dat[c.cur[r]] = v
	c.cur[r]++
}

// Row returns row r's elements.
func (c *CSR[T]) Row(r int32) []T { return c.Dat[c.Off[r]:c.Off[r+1]] }

// Len returns row r's element count.
func (c *CSR[T]) Len(r int32) int { return int(c.Off[r+1] - c.Off[r]) }

// Rows returns the row count.
func (c *CSR[T]) Rows() int { return len(c.Off) - 1 }
