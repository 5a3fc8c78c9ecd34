package snap

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"

	"fexipro/internal/vec"
)

// FuzzSnapshotLoad feeds arbitrary bytes to the container reader. The
// contract under fuzz is exactly the one production relies on when a
// data-dir holds a damaged snapshot: a typed error or a clean parse,
// never a panic and never an allocation driven by a header-declared
// size (readPayload grows only as bytes actually arrive, mirroring the
// chunk-read fix in data.ReadMatrixBinary).
func FuzzSnapshotLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, []Section{
		{Tag: "idx.meta", Payload: []byte{1, 2, 3}},
		{Tag: "idx.rows", Payload: make([]byte, 40)},
	}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Read(bytes.NewReader(data))
		if err != nil {
			if !typedErr(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// A successful parse must re-encode: the sections came through
		// the CRC gate, so Write must accept them byte-for-byte.
		var out bytes.Buffer
		if err := Write(&out, file.Sections); err != nil {
			t.Fatalf("re-encode of parsed file failed: %v", err)
		}
		// And every payload must survive the decoder's bounds checks
		// without panicking, whatever typed junk it holds.
		for _, s := range file.Sections {
			d := NewDecoder(s.Payload)
			d.Matrix()
			d.Floats()
			d.Bool()
			_ = d.Finish()
		}
	})
}

// FuzzWALReplay feeds arbitrary bytes to the WAL scanner: typed error
// or a prefix-consistent replay, never a panic, and never a record the
// bytes do not fully back. Zeros appended to a log that replays cleanly
// are a preallocated tail: they change neither its records nor its
// length.
func FuzzWALReplay(f *testing.F) {
	var hdr [walHdrLen]byte
	copy(hdr[:8], walMagic)
	putU32(hdr[8:12], walVersion)
	putU32(hdr[12:16], 2)
	log := append([]byte(nil), hdr[:]...)
	log = append(log, appendWALRecord(nil, WALRecord{Seq: 1, Op: WALAdd, ID: 7, Vec: []float64{1, 2}})...)
	log = append(log, appendWALRecord(nil, WALRecord{Seq: 2, Op: WALDelete, ID: 7})...)
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(hdr[:])
	f.Add([]byte{})
	zeros := make([]byte, 64)
	f.Add(append(append([]byte(nil), log...), zeros...))                   // a zero tail
	f.Add(append(append([]byte(nil), log[:len(log)-3]...), zeros[:35]...)) // torn over zeros
	f.Add(append(append([]byte(nil), hdr[:]...), zeros[:5]...))            // a reset cut short
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := ReplayWAL(bytes.NewReader(data))
		if err != nil {
			if !typedErr(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if !rp.Torn {
			for _, n := range []int{3, 8, 1 + len(data)%61} {
				padded := append(append([]byte(nil), data...), make([]byte, n)...)
				zp, err := ReplayWAL(bytes.NewReader(padded))
				if err != nil || zp.Torn || zp.ValidLen != rp.ValidLen || !reflect.DeepEqual(zp.Records, rp.Records) {
					t.Fatalf("%d zeros appended to a clean log of ValidLen %d: %+v, %v", n, rp.ValidLen, zp, err)
				}
			}
		}
		if rp.ValidLen < walHdrLen || rp.ValidLen > int64(len(data)) {
			t.Fatalf("ValidLen %d outside [%d, %d]", rp.ValidLen, walHdrLen, len(data))
		}
		// The first sequence number is the caller's business (a reset
		// log continues from its checkpoint), but from there on the
		// chain must be contiguous and every add fully backed.
		for i, rec := range rp.Records {
			if rec.Seq == 0 {
				t.Fatalf("record %d has sequence 0", i)
			}
			if i > 0 && rec.Seq != rp.Records[i-1].Seq+1 {
				t.Fatalf("record %d has seq %d after %d", i, rec.Seq, rp.Records[i-1].Seq)
			}
			if rec.Op == WALAdd && len(rec.Vec) != rp.Dim {
				t.Fatalf("record %d vec has %d dims, want %d", i, len(rec.Vec), rp.Dim)
			}
		}
	})
}

// FuzzBuilderStream builds random sections through the streamed Builder
// — scalars, slices and matrices of fuzzed sizes up to well past its
// 64 KiB buffer, encoded sections between pre-encoded Raw ones — and
// requires the file the old way wrote: each payload built in memory by
// an Encoder's zero value, then the container written around them by
// writeReference. snap.Read must accept it and return those payloads.
func FuzzBuilderStream(f *testing.F) {
	f.Add([]byte{0, 3, 5, 2, 10, 0, 1, 7})
	// U8, then 9025 floats: the words straddle the first buffer's end
	// one byte off alignment.
	f.Add([]byte{0, 1, 5, 190})
	// A matrix in parts and a long Ints run across several buffers, a
	// Raw section between them.
	f.Add([]byte{8, 255, 21, 1, 2, 9, 10, 0, 6, 240})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		secs := fuzzProgram(data)
		var b Builder
		ref := make([]Section, len(secs))
		for i, sec := range secs {
			tag := fmt.Sprintf("s%d", i)
			var mem Encoder
			sec.encode(&mem)
			ref[i] = Section{Tag: tag, Payload: mem.Bytes()}
			if sec.raw {
				b.Raw(tag, mem.Bytes())
			} else {
				b.Section(tag, sec.encode)
			}
		}
		var want, got bytes.Buffer
		if err := writeReference(&want, ref); err != nil {
			t.Fatal(err)
		}
		if err := b.Flush(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("streamed file (%d B) differs from the reference (%d B)", got.Len(), want.Len())
		}
		file, err := Read(&got)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if len(file.Sections) != len(ref) {
			t.Fatalf("read %d sections, wrote %d", len(file.Sections), len(ref))
		}
		for i, s := range file.Sections {
			if s.Tag != ref[i].Tag || !bytes.Equal(s.Payload, ref[i].Payload) {
				t.Fatalf("section %d (%q) read back different", i, s.Tag)
			}
		}
	})
}

// fuzzSection is one section of a fuzzed Builder: the ops its fn runs,
// and whether it goes in pre-encoded (Raw).
type fuzzSection struct {
	raw bool
	ops [][2]byte // kind, size
}

// fuzzProgram reads data two bytes an op: kind%11 == 10 starts a new
// section (a Raw one when size is odd), any other kind appends an op to
// the current one. At most 24 ops, so one input encodes at most a few MB.
func fuzzProgram(data []byte) []fuzzSection {
	secs := []fuzzSection{{}}
	for i := 0; i+1 < len(data) && i < 48; i += 2 {
		kind, size := data[i], data[i+1]
		if kind%11 == 10 {
			secs = append(secs, fuzzSection{raw: size%2 == 1})
			continue
		}
		last := &secs[len(secs)-1]
		last.ops = append(last.ops, [2]byte{kind, size})
	}
	return secs
}

// encode runs the section's ops on e: a pure function of the ops, as
// Builder.Section requires.
func (s fuzzSection) encode(e *Encoder) {
	for _, op := range s.ops {
		kind, size := op[0]%10, op[1]
		n := int(size) * int(size) / 4 // up to 16256 values, 127 KiB
		floats := make([]float64, n)
		for i := range floats {
			floats[i] = math.Float64frombits(uint64(i+1)*0x9E3779B97F4A7C15 ^ uint64(size))
		}
		switch kind {
		case 0:
			e.U8(size)
		case 1:
			e.U32(uint32(size) * 0x01010101)
		case 2:
			e.U64(uint64(size) * 0x0101010101010101)
		case 3:
			e.F64(-float64(size) / 3)
		case 4:
			e.Bool(size%2 == 1)
		case 5:
			e.Floats(floats)
		case 6:
			ints := make([]int, n)
			for i := range ints {
				ints[i] = (i - n/2) * int(size)
			}
			e.Ints(ints)
		case 7:
			if size == 0 {
				e.Matrix(nil)
				continue
			}
			cols := int(size%7) + 1
			e.Matrix(&vec.Matrix{Rows: n / cols, Cols: cols, Data: floats[:n/cols*cols]})
		case 8:
			// The rows in parts of 37 values, as a catalog stores them
			// in blocks.
			var parts [][]float64
			for rest := floats; len(rest) > 0; {
				k := min(37, len(rest))
				parts = append(parts, rest[:k])
				rest = rest[k:]
			}
			e.MatrixParts(n, 1, parts...)
		case 9:
			e.Ints(nil)
		}
	}
}

// writeReference is the container writer from before the Builder
// streamed: each payload in one write, its CRC computed over the whole.
func writeReference(w io.Writer, sections []Section) error {
	var hdr [16]byte
	copy(hdr[:8], magic)
	putU32(hdr[8:12], version)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, s := range append(sections, Section{Tag: endTag}) {
		var shdr [24]byte
		copy(shdr[:tagLen], s.Tag)
		putU64(shdr[8:16], uint64(len(s.Payload)))
		putU32(shdr[16:20], crc32.ChecksumIEEE(s.Payload))
		if _, err := w.Write(shdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(s.Payload); err != nil {
			return err
		}
		var zeros [8]byte
		if _, err := w.Write(zeros[:padding(len(s.Payload))]); err != nil {
			return err
		}
	}
	return nil
}
