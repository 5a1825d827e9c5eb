// Package db is the binary design database: a compact, versioned,
// reflection-free serialization substrate for mid-flow design state.
// Netlists, placements, clock trees, routing caches, and STA snapshots
// round-trip through plain PutX(w, v) / ReadX(r) codec pairs, one per
// length-prefixed, CRC-framed section — no encoding/gob, no reflection,
// no struct tags, no section objects. Encoding is canonical: encode →
// decode → encode is byte-identical, which is what lets the golden
// tests pin file digests and `designdb verify` prove a file re-encodes
// to itself.
//
// Decoding has one error path. Reader is bounds-checked and sticky: the
// first failed read or Reader.Corruptf validation is recorded, later
// reads return zero values, every count-bounded loop stops at the first
// failed element (Reader.More), and Reader.Done ends every payload decode
// with that first error or ErrCorrupt for trailing bytes. Decode walks
// a design file's frames and finishes each known section with Done.
//
// File layout (DESIGN.md §6.7):
//
//	magic[4] version[u32]            — file header
//	repeat:                          — sections, in writer order
//	  tag[4] len[u32] payload[len] crc32[u32]
//
// All integers are little-endian; floats are IEEE-754 bits via
// math.Float64bits, so values survive bit-exactly. Strings are a u32
// length followed by raw bytes. Unknown section tags are skipped on
// decode (forward compatibility within a format version); an unknown
// format version is refused with ErrVersion.
//
// Two file kinds share the framing: design databases (MagicDesign,
// written by the flow's -save-design hook) and streamed evaluation
// journals (MagicJournal, the checkpoint internal/eval resumes from).
// Journals are append-only: each record is one frame, written in a
// single O_APPEND write, and a truncated final frame is reported as
// ErrTruncated so loaders can tolerate a run killed mid-append without
// accepting mid-file corruption.
//
// Every decode failure is typed: errors.Is(err, ErrCorrupt) for damaged
// or adversarial input, errors.Is(err, ErrVersion) for an incompatible
// format version. Decoders never panic on arbitrary bytes — FuzzDBDecode
// here, and FuzzDesignFile (internal/core) and FuzzJournal
// (internal/eval) over whole files, hold them to that.
package db

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// MagicDesign opens a design-database file (cmd/ppac -save-design,
	// cmd/hetero3d -save-design, the flow's stage-boundary snapshots).
	MagicDesign = "H3DB"
	// MagicJournal opens an evaluation journal (cmd/ppac -checkpoint).
	MagicJournal = "H3CK"
	// FormatVersion is the current wire-format version; bumped on any
	// incompatible layout change. Readers refuse other versions with
	// ErrVersion.
	FormatVersion = 1
	// TagLease is the frame tag of the lease records the removed
	// sharded evaluation farm wrote into evaluation journals. No writer
	// emits it; journal readers refuse a file that holds one
	// (eval.ErrFarmJournal).
	TagLease = "LEAS"
)

var (
	// ErrCorrupt reports damaged, truncated, or adversarial input: bad
	// magic, a failed CRC, an out-of-range count, or section contents
	// that fail semantic validation on import.
	ErrCorrupt = errors.New("db: corrupt data")
	// ErrVersion reports a file whose format version this reader does
	// not understand.
	ErrVersion = errors.New("db: unsupported format version")
	// ErrTruncated reports a frame cut short by the end of input — the
	// partial-final-write case an append-only journal loader tolerates.
	// It wraps ErrCorrupt: callers that do not care about the
	// distinction still see corrupt data.
	ErrTruncated = fmt.Errorf("%w: truncated frame", ErrCorrupt)
)

// Corruptf builds an ErrCorrupt-wrapping error with context.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// tagBytes validates and returns a 4-byte section tag.
func tagBytes(tag string) ([]byte, error) {
	if len(tag) != 4 {
		return nil, fmt.Errorf("db: section tag %q must be exactly 4 bytes", tag)
	}
	return []byte(tag), nil
}

// Header returns the file header for the given magic.
func Header(magic string) []byte {
	h := make([]byte, 0, 8)
	h = append(h, magic...)
	return appendU32(h, FormatVersion)
}

// ParseHeader validates the file header against the expected magic and
// the supported format version, returning the remaining bytes.
func ParseHeader(data []byte, magic string) ([]byte, error) {
	if len(data) < 8 {
		return nil, Corruptf("file shorter than its %d-byte header", 8)
	}
	if string(data[:4]) != magic {
		return nil, Corruptf("bad magic %q (want %q)", data[:4], magic)
	}
	v := leU32(data[4:8])
	if v != FormatVersion {
		return nil, fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, v, FormatVersion)
	}
	return data[8:], nil
}

// AppendFrame appends one framed section — tag, length, payload, CRC —
// to dst and returns it. The frame layout is shared by design-file
// sections and journal records.
func AppendFrame(dst []byte, tag string, payload []byte) ([]byte, error) {
	tb, err := tagBytes(tag)
	if err != nil {
		return nil, err
	}
	dst = append(dst, tb...)
	dst = appendU32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return appendU32(dst, crc32.ChecksumIEEE(payload)), nil
}

// FrameIter walks the frames of a byte stream (after the file header).
// Next returns io.EOF at a clean end, ErrTruncated when the input ends
// mid-frame (the tolerated partial-final-append case), and ErrCorrupt
// on a CRC mismatch of a fully present frame.
type FrameIter struct {
	data []byte
	off  int
}

// NewFrameIter iterates frames over data, which must start at the
// first frame (use ParseHeader to strip the file header).
func NewFrameIter(data []byte) *FrameIter { return &FrameIter{data: data} }

// Offset returns the byte offset of the next unread frame.
func (it *FrameIter) Offset() int { return it.off }

// Next returns the next frame's tag and payload.
func (it *FrameIter) Next() (tag string, payload []byte, err error) {
	rest := it.data[it.off:]
	if len(rest) == 0 {
		return "", nil, io.EOF
	}
	if len(rest) < 8 {
		return "", nil, ErrTruncated
	}
	tag = string(rest[:4])
	n := int(leU32(rest[4:8]))
	if n < 0 || len(rest) < 8+n+4 {
		return tag, nil, ErrTruncated
	}
	payload = rest[8 : 8+n]
	want := leU32(rest[8+n : 8+n+4])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return tag, nil, Corruptf("section %s: CRC mismatch (stored %08x, computed %08x)", tag, want, got)
	}
	it.off += 8 + n + 4
	return tag, payload, nil
}

// SectionInfo describes one frame of a file for inspection tooling.
type SectionInfo struct {
	Tag string
	// Offset and Len locate the payload within the file.
	Offset, Len int
	CRC         uint32
}

// List parses a file's header (either known magic) and enumerates its
// frames without decoding payloads. The magic is returned so callers
// can report the file kind.
func List(data []byte) (magic string, secs []SectionInfo, err error) {
	for _, m := range []string{MagicDesign, MagicJournal} {
		if len(data) >= 4 && string(data[:4]) == m {
			magic = m
			break
		}
	}
	if magic == "" {
		return "", nil, Corruptf("unknown magic (not a design database or evaluation journal)")
	}
	body, err := ParseHeader(data, magic)
	if err != nil {
		return magic, nil, err
	}
	it := NewFrameIter(body)
	for {
		off := it.Offset()
		tag, payload, err := it.Next()
		if err == io.EOF {
			return magic, secs, nil
		}
		if err != nil {
			return magic, secs, err
		}
		secs = append(secs, SectionInfo{
			Tag:    tag,
			Offset: 8 + off + 8, // file header + frame offset + frame header
			Len:    len(payload),
			CRC:    crc32.ChecksumIEEE(payload),
		})
	}
}

// Decode walks a file's frames in order and hands each payload to
// section as a payload-bounded Reader. section reads the frame if it
// knows the tag and reports whether it did; an unknown tag (false) is
// skipped, keeping the format forward compatible. A known frame must be
// consumed exactly: Decode finishes it with Reader.Done, so its first
// read or validation error, or a trailing byte, aborts the walk. Frames
// must be complete: a truncated design file is corrupt, not resumable.
func Decode(data []byte, magic string, section func(tag string, r *Reader) bool) error {
	body, err := ParseHeader(data, magic)
	if err != nil {
		return err
	}
	it := NewFrameIter(body)
	for {
		tag, payload, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		r := NewReader(payload)
		if !section(tag, r) {
			continue
		}
		if err := r.Done("db: section " + tag); err != nil {
			return err
		}
	}
}
