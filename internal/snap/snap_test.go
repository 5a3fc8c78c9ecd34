package snap

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fexipro/internal/vec"
)

// typedErr reports whether err wraps exactly one of the three exported
// sentinels — the contract every reader in this package promises.
func typedErr(err error) bool {
	n := 0
	for _, s := range []error{ErrBadMagic, ErrChecksum, ErrTruncated} {
		if errors.Is(err, s) {
			n++
		}
	}
	return n == 1
}

func sampleSections() []Section {
	return []Section{
		{Tag: "idx.meta", Payload: []byte{1, 2, 3}},          // padded by 5
		{Tag: "idx.rows", Payload: make([]byte, 64)},         // already aligned
		{Tag: "empty", Payload: nil},                         // zero-length section
		{Tag: "odd", Payload: []byte("0123456789abcdefghi")}, // 19 bytes, padded by 5
	}
}

func mustWrite(t *testing.T, sections []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sections); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	sections := sampleSections()
	raw := mustWrite(t, sections)
	f, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(f.Sections) != len(sections) {
		t.Fatalf("got %d sections, want %d", len(f.Sections), len(sections))
	}
	for i, want := range sections {
		got := f.Sections[i]
		if got.Tag != want.Tag {
			t.Errorf("section %d tag %q, want %q", i, got.Tag, want.Tag)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("section %d payload differs", i)
		}
	}
	if _, ok := f.Section("idx.rows"); !ok {
		t.Error("Section(idx.rows) not found")
	}
	if _, ok := f.Section("missing"); ok {
		t.Error("Section(missing) unexpectedly found")
	}
	// Writing the parsed sections again must reproduce the bytes
	// exactly — the determinism the bit-identity tests build on.
	if again := mustWrite(t, f.Sections); !bytes.Equal(again, raw) {
		t.Error("re-encoding parsed sections changed the bytes")
	}
}

// TestContainerAlignment verifies the mmap-friendliness claim: every
// section header and every payload starts on an 8-byte boundary.
func TestContainerAlignment(t *testing.T) {
	raw := mustWrite(t, sampleSections())
	if len(raw)%8 != 0 {
		t.Errorf("file length %d not 8-byte aligned", len(raw))
	}
	off := 16 // file header
	for _, s := range sampleSections() {
		if off%8 != 0 {
			t.Errorf("section %q header at unaligned offset %d", s.Tag, off)
		}
		payloadOff := off + 24
		if payloadOff%8 != 0 {
			t.Errorf("section %q payload at unaligned offset %d", s.Tag, payloadOff)
		}
		off = payloadOff + len(s.Payload) + padding(len(s.Payload))
	}
}

func TestWriteRejectsBadTags(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Section{{Tag: "waytoolongtag"}}); err == nil {
		t.Error("overlong tag accepted")
	}
	if err := Write(&buf, []Section{{Tag: endTag}}); err == nil {
		t.Error("reserved end tag accepted")
	}
}

func TestReadErrorTaxonomy(t *testing.T) {
	valid := mustWrite(t, sampleSections())
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"bad magic", []byte("NOTSNAP\x00aaaaaaaa"), ErrBadMagic},
		{"bad version", func() []byte {
			b := append([]byte(nil), valid...)
			putU32(b[8:12], 99)
			return b
		}(), ErrBadMagic},
		{"header cut", valid[:7], ErrTruncated},
		{"missing end marker", valid[:len(valid)-24], ErrTruncated},
		{"payload bit flip", func() []byte {
			b := append([]byte(nil), valid...)
			b[16+24] ^= 0x40 // first payload byte of the first section
			return b
		}(), ErrChecksum},
		{"crc bit flip", func() []byte {
			b := append([]byte(nil), valid...)
			b[16+16] ^= 0x01 // crc field of the first section header
			return b
		}(), ErrChecksum},
		{"implausible length", func() []byte {
			b := append([]byte(nil), valid...)
			putU64(b[16+8:16+16], maxSectionLen+1)
			return b
		}(), ErrChecksum},
		{"nonzero end length", func() []byte {
			var buf bytes.Buffer
			if err := Write(&buf, nil); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			putU64(b[16+8:16+16], 8)
			return b
		}(), ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.data))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if !typedErr(err) {
				t.Fatalf("error %v wraps more than one sentinel", err)
			}
		})
	}
}

// TestReadTruncationEveryByte is the container half of the crash
// battery: a valid file cut at ANY byte offset must yield a typed
// error, never a parse of phantom data.
func TestReadTruncationEveryByte(t *testing.T) {
	valid := mustWrite(t, sampleSections())
	for cut := 0; cut < len(valid); cut++ {
		_, err := Read(bytes.NewReader(valid[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d parsed successfully", cut, len(valid))
		}
		if !typedErr(err) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

// TestReadBitFlipEveryByte flips one bit at every offset of a valid
// file. The container must never panic; whenever it does parse, the
// damage must be confined to header fields the CRC does not cover (the
// tag bytes and the reserved pad), never to payload content.
func TestReadBitFlipEveryByte(t *testing.T) {
	valid := mustWrite(t, sampleSections())
	orig, err := Read(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(valid); off++ {
		b := append([]byte(nil), valid...)
		b[off] ^= 0x10
		f, err := Read(bytes.NewReader(b))
		if err != nil {
			if !typedErr(err) {
				t.Fatalf("flip at %d: untyped error %v", off, err)
			}
			continue
		}
		if len(f.Sections) != len(orig.Sections) {
			t.Fatalf("flip at %d: parsed %d sections, want %d", off, len(f.Sections), len(orig.Sections))
		}
		for i := range f.Sections {
			if !bytes.Equal(f.Sections[i].Payload, orig.Sections[i].Payload) {
				t.Fatalf("flip at %d: payload %d silently changed", off, i)
			}
		}
	}
}

// TestUnknownSectionRetained pins the forward-compatibility contract:
// a tag this version has never heard of parses fine (checksummed) and
// is retained for callers to skip.
func TestUnknownSectionRetained(t *testing.T) {
	raw := mustWrite(t, []Section{
		{Tag: "idx.meta", Payload: []byte{1}},
		{Tag: "fut.tag", Payload: []byte("from the future")},
	})
	f, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got, ok := f.Section("fut.tag"); !ok || string(got) != "from the future" {
		t.Fatalf("unknown section not retained: %q, %v", got, ok)
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	m := vec.NewMatrix(3, 2)
	for i := range m.Data {
		m.Data[i] = float64(i) * 1.5
	}
	e := &Encoder{}
	e.U8(7)
	e.U32(1 << 20)
	e.U64(1 << 40)
	e.I64(-12345)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.Bool(true)
	e.Bool(false)
	e.Floats([]float64{1, -2.5, math.SmallestNonzeroFloat64})
	e.Floats(nil)
	e.Ints([]int{0, -1, 1 << 30})
	e.Int64s([]int64{math.MinInt64, math.MaxInt64})
	e.Int32s([]int32{-5, 5})
	e.Int16s([]int16{-300, 300})
	e.Matrix(m)
	e.Matrix(nil)

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.U32(); got != 1<<20 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -12345 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool true")
	}
	if got := d.Bool(); got {
		t.Error("Bool false")
	}
	if got := d.Floats(); !reflect.DeepEqual(got, []float64{1, -2.5, math.SmallestNonzeroFloat64}) {
		t.Errorf("Floats = %v", got)
	}
	if got := d.Floats(); len(got) != 0 {
		t.Errorf("nil Floats = %v", got)
	}
	if got := d.Ints(); !reflect.DeepEqual(got, []int{0, -1, 1 << 30}) {
		t.Errorf("Ints = %v", got)
	}
	if got := d.Int64s(); !reflect.DeepEqual(got, []int64{math.MinInt64, math.MaxInt64}) {
		t.Errorf("Int64s = %v", got)
	}
	if got := d.Int32s(); !reflect.DeepEqual(got, []int32{-5, 5}) {
		t.Errorf("Int32s = %v", got)
	}
	if got := d.Int16s(); !reflect.DeepEqual(got, []int16{-300, 300}) {
		t.Errorf("Int16s = %v", got)
	}
	got := d.Matrix()
	if got == nil || got.Rows != 3 || got.Cols != 2 || !reflect.DeepEqual(got.Data, m.Data) {
		t.Errorf("Matrix = %+v", got)
	}
	if d.Matrix() != nil {
		t.Error("nil Matrix decoded non-nil")
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderFailures(t *testing.T) {
	t.Run("trailing bytes", func(t *testing.T) {
		d := NewDecoder([]byte{1, 2})
		d.U8()
		if err := d.Finish(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("Finish = %v, want ErrChecksum", err)
		}
	})
	t.Run("short read", func(t *testing.T) {
		d := NewDecoder([]byte{1, 2})
		d.U64()
		if err := d.Err(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Err = %v, want ErrTruncated", err)
		}
	})
	t.Run("non-boolean byte", func(t *testing.T) {
		d := NewDecoder([]byte{2})
		d.Bool()
		if err := d.Err(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("Err = %v, want ErrChecksum", err)
		}
	})
	t.Run("lying length", func(t *testing.T) {
		e := &Encoder{}
		e.U64(1 << 60) // claims 2^60 floats with no data behind it
		d := NewDecoder(e.Bytes())
		if got := d.Floats(); got != nil {
			t.Fatalf("Floats on lying length = %v", got)
		}
		if err := d.Err(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Err = %v, want ErrTruncated", err)
		}
	})
	t.Run("lying matrix shape", func(t *testing.T) {
		e := &Encoder{}
		e.U64(1 << 50)
		e.U64(1 << 50)
		d := NewDecoder(e.Bytes())
		if got := d.Matrix(); got != nil {
			t.Fatalf("Matrix on lying shape = %+v", got)
		}
		if err := d.Err(); !typedErr(d.Err()) {
			t.Fatalf("Err = %v, want typed", err)
		}
	})
	t.Run("sticky", func(t *testing.T) {
		d := NewDecoder(nil)
		d.U32()
		first := d.Err()
		d.F64()
		d.Floats()
		if d.Err() != first {
			t.Fatal("sticky error was replaced")
		}
	})
}

func TestBuilderSections(t *testing.T) {
	var b Builder
	b.Section("enc", func(e *Encoder) { e.U32(42) })
	b.Raw("raw", []byte{9})
	var buf bytes.Buffer
	if err := b.Flush(&buf); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	p, ok := f.Section("enc")
	if !ok {
		t.Fatal("enc section missing")
	}
	d := NewDecoder(p)
	if got := d.U32(); got != 42 || d.Finish() != nil {
		t.Fatalf("enc payload = %d (%v)", got, d.Finish())
	}
	if p, ok := f.Section("raw"); !ok || !bytes.Equal(p, []byte{9}) {
		t.Fatalf("raw payload = %v, %v", p, ok)
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus for the two
// fuzz targets when UPDATE_FUZZ_CORPUS=1. The files pin interesting
// shapes (valid files, torn tails, flipped CRCs) so `make fuzz-smoke`
// exercises real structure from call one instead of random bytes.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		t.Skip("set UPDATE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	valid := mustWrite(t, sampleSections())
	flipped := append([]byte(nil), valid...)
	flipped[40] ^= 0x20
	snapSeeds := [][]byte{
		valid,
		valid[:len(valid)/2],
		flipped,
		[]byte("FEXSNAP\x00"),
		[]byte("not a snapshot at all"),
	}
	writeCorpus(t, "FuzzSnapshotLoad", snapSeeds)

	w, _, err := OpenWAL(filepath.Join(t.TempDir(), "wal"), 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(WALAdd, int64(i), []float64{1, 2, 3, float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Append(WALDelete, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	walFlip := append([]byte(nil), walBytes...)
	walFlip[walHdrLen+10] ^= 0x04
	walSeeds := [][]byte{
		walBytes,
		walBytes[:len(walBytes)-5],
		walFlip,
		walBytes[:walHdrLen],
		[]byte("FEXWAL\x00\x00"),
	}
	writeCorpus(t, "FuzzWALReplay", walSeeds)
}

func writeCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
