package snap

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"fexipro/internal/vec"
)

// Encoder builds a section payload. All values are little-endian; the
// variable-length shapes (slices, matrices) carry explicit u64 lengths
// so a Decoder can bound-check before touching the data. The zero value
// keeps the payload in memory (Bytes). The encoders Builder.Flush makes
// stream it instead: their buffer is one fixed-size slice, handed to a
// sink (a CRC, then the file) each time it fills, so a 40 MB catalog is
// never held as one payload. Encoding cannot fail, so the API has no
// error returns — a sink's error is kept and reported once per section.
type Encoder struct {
	buf []byte
	// sink, when set, takes buf each time it fills; buf then never grows
	// past its capacity.
	sink io.Writer
	n    int   // bytes handed to sink
	err  error // sink's first error; the bytes after it are dropped
}

// Bytes returns the payload accumulated by an Encoder's zero value.
func (e *Encoder) Bytes() []byte { return e.buf }

// reserve makes room for n ≤ 8 more bytes in a streaming encoder; a
// memory one grows on append.
func (e *Encoder) reserve(n int) {
	if e.sink != nil && cap(e.buf)-len(e.buf) < n {
		e.flush()
	}
}

// flush hands the buffered bytes to the sink.
func (e *Encoder) flush() {
	if len(e.buf) == 0 {
		return
	}
	if e.err == nil {
		_, e.err = e.sink.Write(e.buf)
	}
	e.n += len(e.buf)
	e.buf = e.buf[:0]
}

// words extends buf by k 8-byte words, 1 ≤ k ≤ n for n ≥ 1, and returns
// them to be filled: all n in a memory encoder, as many as the buffer
// holds in a streaming one.
func (e *Encoder) words(n int) []byte {
	if e.sink == nil {
		e.buf = slices.Grow(e.buf, 8*n)
	} else if cap(e.buf)-len(e.buf) < 8 {
		e.flush()
	}
	start := len(e.buf)
	e.buf = e.buf[:start+8*min(n, (cap(e.buf)-start)/8)]
	return e.buf[start:]
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) {
	e.reserve(1)
	e.buf = append(e.buf, v)
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.reserve(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.reserve(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 float64 bit pattern (lossless: loading gives
// back the identical bits, the foundation of the bit-identity tests).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Floats appends a length-prefixed []float64.
func (e *Encoder) Floats(v []float64) {
	e.U64(uint64(len(v)))
	e.floats(v)
}

// floats appends v's bit patterns, a buffer's worth at a time.
func (e *Encoder) floats(v []float64) {
	for len(v) > 0 {
		dst := e.words(len(v))
		k := len(dst) / 8
		for _, x := range v[:k] {
			binary.LittleEndian.PutUint64(dst, math.Float64bits(x))
			dst = dst[8:]
		}
		v = v[k:]
	}
}

// Ints appends a length-prefixed []int as int64s.
func (e *Encoder) Ints(v []int) {
	e.U64(uint64(len(v)))
	for len(v) > 0 {
		dst := e.words(len(v))
		k := len(dst) / 8
		for _, x := range v[:k] {
			binary.LittleEndian.PutUint64(dst, uint64(int64(x)))
			dst = dst[8:]
		}
		v = v[k:]
	}
}

// Matrix appends rows, cols, and the row-major float64 data. A nil
// matrix is encoded as rows = MaxUint64 and distinguished on load.
func (e *Encoder) Matrix(m *vec.Matrix) {
	if m == nil {
		e.U64(math.MaxUint64)
		return
	}
	e.MatrixParts(m.Rows, m.Cols, m.Data)
}

// MatrixParts appends what Matrix appends for the rows×cols matrix whose
// row-major data is parts laid end to end, for a caller that stores its
// rows in blocks. The parts must hold exactly rows·cols values.
func (e *Encoder) MatrixParts(rows, cols int, parts ...[]float64) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n != rows*cols {
		panic(fmt.Sprintf("snap: MatrixParts got %d values for %d×%d", n, rows, cols))
	}
	e.U64(uint64(rows))
	e.U64(uint64(cols))
	for _, p := range parts {
		e.floats(p)
	}
}

// Decoder reads a section payload produced by Encoder. It carries a
// sticky error: after the first failure every subsequent read returns
// zero values, and Err() reports the failure wrapped in ErrTruncated or
// ErrChecksum. Length prefixes are validated against the bytes actually
// present BEFORE any allocation, so a corrupt length cannot OOM.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a section payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the sticky decode error, nil if every read succeeded.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the unread byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns the sticky error, or ErrChecksum if the payload has
// trailing bytes the decoder did not consume (a malformed section).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in section payload", ErrChecksum, d.Remaining())
	}
	return nil
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("%w: need %d bytes, have %d", ErrTruncated, n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one byte as a bool; values other than 0/1 are corruption.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("%w: non-boolean byte in section payload", ErrChecksum)
		return false
	}
}

// length reads a u64 length prefix and validates that count × elemSize
// bytes are actually present, so slice reads never allocate on a lie.
func (d *Decoder) length(elemSize int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining())/uint64(elemSize) {
		d.fail("%w: declared length %d exceeds remaining %d bytes", ErrTruncated, n, d.Remaining())
		return 0
	}
	return int(n)
}

// Floats reads a length-prefixed []float64.
func (d *Decoder) Floats() []float64 {
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Ints reads a length-prefixed []int.
func (d *Decoder) Ints() []int {
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.I64())
	}
	return out
}

// Matrix reads a matrix written by Encoder.Matrix (nil-aware).
func (d *Decoder) Matrix() *vec.Matrix {
	rows := d.U64()
	if d.err != nil {
		return nil
	}
	if rows == math.MaxUint64 {
		return nil
	}
	cols := d.U64()
	if d.err != nil {
		return nil
	}
	// Shape must fit in the bytes actually present (8 per element), so
	// the allocation below is bounded by the payload size.
	if cols > 0 && rows > uint64(d.Remaining())/8/cols {
		d.fail("%w: matrix %d×%d exceeds remaining %d bytes", ErrTruncated, rows, cols, d.Remaining())
		return nil
	}
	if rows > maxSectionLen || cols > maxSectionLen {
		d.fail("%w: implausible matrix shape %d×%d", ErrChecksum, rows, cols)
		return nil
	}
	m := vec.NewMatrix(int(rows), int(cols))
	raw := d.take(8 * len(m.Data)) // present: checked against Remaining above
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return m
}
