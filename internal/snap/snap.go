// Package snap implements fexsnap/v1, the versioned, checksummed binary
// container every persisted index in this repository is written in, plus
// the append-only write-ahead log that makes core.DynamicIndex mutations
// durable between snapshots (DESIGN.md §15).
//
// A fexsnap file is a 16-byte header followed by a sequence of sections
// and a mandatory end marker:
//
//	magic   [8]byte  "FEXSNAP\x00"
//	version u32      1
//	flags   u32      reserved, 0
//	section*:
//	  tag     [8]byte  ASCII, NUL-padded ("idx.bar\x00", ...)
//	  length  u64      payload bytes (excluding padding)
//	  crc     u32      CRC-32 (IEEE) of the payload
//	  _pad    u32      reserved, 0
//	  payload [length]byte, zero-padded to the next 8-byte boundary
//	end marker: a section with tag "fex.end\x00" and length 0
//
// Everything is little-endian and every offset a reader needs to touch
// is 8-byte aligned, so a future loader may mmap the file and cast
// float64 payloads in place. Readers skip sections whose tag they do not
// recognize (forward compatibility: a newer writer can add components
// without breaking older readers), but still verify their checksums.
//
// Failure taxonomy — every reader error wraps exactly one of the three
// exported sentinels, so callers (and the fuzz targets) can classify any
// corrupt input without string matching:
//
//   - ErrBadMagic: the input is not a fexsnap file (or an unsupported
//     version).
//   - ErrTruncated: the input ends before the end marker, or a declared
//     length points past the available bytes.
//   - ErrChecksum: all bytes are present but the content is corrupt
//     (CRC mismatch, implausible declared size, malformed structure).
//
// Like data.ReadMatrixBinary, readers never trust a header-declared size
// enough to allocate it up front: payloads are read in bounded chunks
// that grow only as data actually arrives, so a corrupt length fails
// with ErrTruncated instead of an OOM.
package snap

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Sentinel errors. Every error returned by a reader in this package
// wraps exactly one of these (match with errors.Is).
var (
	// ErrBadMagic means the input does not start with the fexsnap magic
	// or declares an unsupported version.
	ErrBadMagic = errors.New("snap: not a fexsnap file")
	// ErrChecksum means a section or record failed its CRC or declared a
	// structurally impossible size — the bytes are present but wrong.
	ErrChecksum = errors.New("snap: checksum mismatch")
	// ErrTruncated means the input ended before the format says it
	// should — the signature of a torn write or a partial copy.
	ErrTruncated = errors.New("snap: truncated input")
)

const (
	magic   = "FEXSNAP\x00"
	version = 1

	// endTag terminates the section stream; a reader that hits EOF
	// before seeing it reports ErrTruncated.
	endTag = "fex.end"

	// tagLen is the fixed on-disk tag width.
	tagLen = 8

	// maxSectionLen bounds a single section's declared payload so a
	// corrupt length fails fast. 1 GiB is ~30× the largest index any
	// test or bench in this repository builds.
	maxSectionLen = 1 << 30

	// chunk is the bounded read size used when draining payloads —
	// the same idiom as data.ReadMatrixBinary's chunked matrix read.
	chunk = 64 << 10
)

// Section is one tagged, checksummed payload of a fexsnap file.
type Section struct {
	Tag     string
	Payload []byte
}

// File is a fully parsed fexsnap container.
type File struct {
	Sections []Section
}

// Section returns the payload of the first section with the given tag
// and whether it was present.
func (f *File) Section(tag string) ([]byte, bool) {
	for _, s := range f.Sections {
		if s.Tag == tag {
			return s.Payload, true
		}
	}
	return nil, false
}

// Builder accumulates sections for a fexsnap file and writes them in
// the order they were added. The zero value is ready to use.
type Builder struct {
	parts []part
}

// part is one section of a Builder: a payload, or the fn that encodes
// it.
type part struct {
	Section
	fn func(e *Encoder)
}

// Section appends a section whose payload fn encodes. Flush runs fn
// twice, on two encoders: once to learn the payload's length and CRC,
// once to write it. fn must therefore be a pure read of state that
// does not change between the two runs, encoding the same bytes both
// times; Flush refuses a section whose two runs differ in length.
func (b *Builder) Section(tag string, fn func(e *Encoder)) {
	b.parts = append(b.parts, part{Section: Section{Tag: tag}, fn: fn})
}

// Raw appends a pre-encoded section (used for nested containers and by
// the fixture generator).
func (b *Builder) Raw(tag string, payload []byte) {
	b.parts = append(b.parts, part{Section: Section{Tag: tag, Payload: payload}})
}

// Flush writes the assembled container to w. Each encoded section
// streams through one buffer of 64 KiB: a checksum pass, the section
// header, then a write pass. The file bytes are those of Write over the
// encoded payloads.
func (b *Builder) Flush(w io.Writer) error {
	var hdr [16]byte
	copy(hdr[:8], magic)
	putU32(hdr[8:12], version)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf []byte
	for _, p := range b.parts {
		if len(p.Tag) > tagLen {
			return fmt.Errorf("snap: section tag %q longer than %d bytes", p.Tag, tagLen)
		}
		if p.Tag == endTag {
			return fmt.Errorf("snap: section tag %q is reserved", endTag)
		}
		if p.fn == nil {
			if err := writeSection(w, p.Tag, p.Payload); err != nil {
				return err
			}
			continue
		}
		if buf == nil {
			buf = make([]byte, 0, chunk)
		}
		sum := crc32.NewIEEE()
		e := Encoder{buf: buf, sink: sum}
		p.fn(&e)
		e.flush()
		length := e.n
		if err := writeSectionHeader(w, p.Tag, length, sum.Sum32()); err != nil {
			return err
		}
		e = Encoder{buf: buf, sink: w}
		p.fn(&e)
		e.flush()
		if e.err != nil {
			return e.err
		}
		if e.n != length {
			return fmt.Errorf("snap: section %q encoded %d bytes, then %d: its fn is not a pure read", p.Tag, length, e.n)
		}
		if err := writePadding(w, length); err != nil {
			return err
		}
	}
	return writeSection(w, endTag, nil)
}

// Write emits a complete fexsnap/v1 container holding the given
// sections (in order), including header, per-section checksums,
// alignment padding, and the end marker.
func Write(w io.Writer, sections []Section) error {
	b := Builder{parts: make([]part, len(sections))}
	for i, s := range sections {
		b.parts[i].Section = s
	}
	return b.Flush(w)
}

func writeSection(w io.Writer, tag string, payload []byte) error {
	if err := writeSectionHeader(w, tag, len(payload), crc32.ChecksumIEEE(payload)); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return writePadding(w, len(payload))
}

func writeSectionHeader(w io.Writer, tag string, length int, crc uint32) error {
	var hdr [24]byte
	copy(hdr[:tagLen], tag)
	putU64(hdr[8:16], uint64(length))
	putU32(hdr[16:20], crc)
	_, err := w.Write(hdr[:])
	return err
}

func writePadding(w io.Writer, length int) error {
	if pad := padding(length); pad > 0 {
		var zeros [8]byte
		if _, err := w.Write(zeros[:pad]); err != nil {
			return err
		}
	}
	return nil
}

// padding returns the zero-byte count that aligns a payload of length n
// to the next 8-byte boundary.
func padding(n int) int { return (8 - n%8) % 8 }

// Read parses a complete fexsnap container. Unknown section tags are
// retained (callers skip what they do not need), checksums are verified
// for every section, and the end marker is mandatory — a file cut off
// at any byte yields ErrTruncated (or ErrChecksum if the cut landed
// inside a section whose header survived intact but whose bytes
// changed; a pure truncation always reports ErrTruncated).
func Read(r io.Reader) (*File, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", errTruncOrMagic(err), err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadMagic, hdr[:8])
	}
	if v := getU32(hdr[8:12]); v != version {
		return nil, fmt.Errorf("%w: unsupported fexsnap version %d (want %d)", ErrBadMagic, v, version)
	}
	f := &File{}
	for {
		var shdr [24]byte
		if _, err := io.ReadFull(r, shdr[:]); err != nil {
			return nil, fmt.Errorf("%w: section header: %v", ErrTruncated, err)
		}
		tag := string(bytes.TrimRight(shdr[:tagLen], "\x00"))
		length := getU64(shdr[8:16])
		crc := getU32(shdr[16:20])
		if tag == endTag {
			if length != 0 {
				return nil, fmt.Errorf("%w: end marker with length %d", ErrChecksum, length)
			}
			return f, nil
		}
		if length > maxSectionLen {
			return nil, fmt.Errorf("%w: section %q declares implausible length %d", ErrChecksum, tag, length)
		}
		payload, err := readPayload(r, int(length))
		if err != nil {
			return nil, fmt.Errorf("%w: section %q: %v", ErrTruncated, tag, err)
		}
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("%w: section %q crc %08x, want %08x", ErrChecksum, tag, got, crc)
		}
		if pad := padding(int(length)); pad > 0 {
			var zeros [8]byte
			if _, err := io.ReadFull(r, zeros[:pad]); err != nil {
				return nil, fmt.Errorf("%w: section %q padding: %v", ErrTruncated, tag, err)
			}
		}
		f.Sections = append(f.Sections, Section{Tag: tag, Payload: payload})
	}
}

// readPayload drains exactly n payload bytes in bounded chunks, growing
// the buffer only as data arrives — never past twice what has — so a
// corrupt declared length cannot trigger a huge allocation.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, minInt(n, chunk))
	for len(buf) < n {
		step := minInt(n-len(buf), chunk)
		start := len(buf)
		// Grow by what has arrived so far, not by append's 1.25×, which
		// copied a 40 MB catalog section five times over on its way in.
		buf = slices.Grow(buf, minInt(n-start, max(step, start)))[:start+step]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// errTruncOrMagic classifies a short read of the file header: an empty
// input is "not a fexsnap file", a partial header is a truncation.
func errTruncOrMagic(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrBadMagic // zero bytes at all: not our format
	}
	return ErrTruncated
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
