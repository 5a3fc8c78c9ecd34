package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"fexipro/internal/vec"
)

// Encoder builds a section payload. All values are little-endian; the
// variable-length shapes (slices, matrices) carry explicit u64 lengths
// so a Decoder can bound-check before touching the data. Encoding into
// memory cannot fail, so the API has no error returns — the container
// writer reports I/O errors once per section.
type Encoder struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

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
	for _, x := range v {
		e.F64(x)
	}
}

// Ints appends a length-prefixed []int as int64s.
func (e *Encoder) Ints(v []int) {
	e.buf = slices.Grow(e.buf, 8+8*len(v))
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.I64(int64(x))
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
	// One growth, not log₂(size) of them each copying what came before: a
	// 10⁵×50 catalog is 40 MB, and a checkpoint encodes it under the
	// server's lock.
	e.buf = slices.Grow(e.buf, 16+8*rows*cols)
	e.U64(uint64(rows))
	e.U64(uint64(cols))
	n := 0
	for _, p := range parts {
		n += len(p)
		for _, x := range p {
			e.F64(x)
		}
	}
	if n != rows*cols {
		panic(fmt.Sprintf("snap: MatrixParts got %d values for %d×%d", n, rows, cols))
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
