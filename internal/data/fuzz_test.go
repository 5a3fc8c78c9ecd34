package data

import (
	"bytes"
	"math"
	"testing"

	"fexipro/internal/vec"
)

// sameFloatBits reports bit-level equality, treating every NaN payload
// as equal (strconv collapses NaN payloads on the text path).
func sameFloatBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkMatrixInvariants(t *testing.T, m *vec.Matrix) {
	t.Helper()
	if m.Rows < 0 || m.Cols < 0 {
		t.Fatalf("negative shape %d×%d", m.Rows, m.Cols)
	}
	if len(m.Data) != m.Rows*m.Cols {
		t.Fatalf("shape %d×%d but %d elements", m.Rows, m.Cols, len(m.Data))
	}
}

// FuzzReadMatrixBinary hammers the FXP1 parser with arbitrary bytes. A
// parse either fails cleanly or yields a structurally sound matrix that
// round-trips bit-for-bit through WriteMatrixBinary. The committed seed
// corpus includes the header-only file that used to trigger a
// multi-gigabyte upfront allocation (rows·cols trusted before any data
// was read).
func FuzzReadMatrixBinary(f *testing.F) {
	var valid bytes.Buffer
	m := vec.FromRows([][]float64{{1.5, -2.25}, {0, math.Inf(1)}})
	if err := WriteMatrixBinary(&valid, m); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("FXP1"))                                     // header truncated
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])               // data truncated
	f.Add([]byte("NOPE\x01\x00\x00\x00\x01\x00\x00\x00"))     // bad magic
	f.Add([]byte("FXP1\xff\xff\xff\xff\xff\xff\xff\xff"))     // implausible shape
	f.Add([]byte("FXP1\xff\xff\xff\x7f\x01\x00\x00\x00"))     // the OOM header
	f.Add([]byte("FXP1\x00\x00\x00\x00\x05\x00\x00\x00"))     // 0×5 empty matrix
	f.Add([]byte("FXP1\x00\x01\x00\x00\x00\x01\x00\x00junk")) // plausible shape, no data
	f.Add([]byte("FXP1\x00\x00\x00\x80\x01\x00\x00\x00"))     // 2^31×1: the largest shape, past int on 32-bit
	f.Add([]byte("FXP1\xff\xff\xff\xff\x00\x00\x00\x00"))     // (2^32−1)×0: rows past int on 32-bit
	f.Add([]byte("FXP1\x00\x00\x00\x00\xff\xff\xff\xff"))     // 0×(2^32−1): cols past int on 32-bit

	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadMatrixBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		checkMatrixInvariants(t, got)
		var out bytes.Buffer
		if err := WriteMatrixBinary(&out, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadMatrixBinary(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Rows != got.Rows || again.Cols != got.Cols {
			t.Fatalf("round-trip shape %d×%d != %d×%d", again.Rows, again.Cols, got.Rows, got.Cols)
		}
		for i := range got.Data {
			if math.Float64bits(again.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("round-trip element %d: %x != %x",
					i, math.Float64bits(again.Data[i]), math.Float64bits(got.Data[i]))
			}
		}
	})
}

// FuzzReadMatrixCSV feeds arbitrary text to the CSV parser: clean error
// or a structurally sound matrix whose WriteMatrixCSV output parses back
// to the same values (strconv's shortest-form 'g' formatting is exact
// for float64).
func FuzzReadMatrixCSV(f *testing.F) {
	f.Add("1,2,3\n4,5,6\n")
	f.Add("")
	f.Add("\n\n  \n")
	f.Add("1.5e-300,-2.25\n0,NaN\n")
	f.Add("+Inf,-Inf\n1,2\n")
	f.Add("1,2\n3\n")       // ragged rows: must error
	f.Add("a,b\n")          // non-numeric: must error
	f.Add(" 7 , 8 \n")      // whitespace trimming
	f.Add("0x1p-3,1_000\n") // Go-isms ParseFloat accepts/rejects

	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 1<<16 {
			return // keep the scanner's O(len) work bounded per exec
		}
		got, err := ReadMatrixCSV(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		checkMatrixInvariants(t, got)
		var out bytes.Buffer
		if err := WriteMatrixCSV(&out, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadMatrixCSV(&out)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", out.String(), err)
		}
		// A matrix with zero columns serializes to blank lines, which the
		// parser legitimately skips; shapes only round-trip when there is
		// at least one column.
		if got.Cols == 0 {
			return
		}
		if again.Rows != got.Rows || again.Cols != got.Cols {
			t.Fatalf("round-trip shape %d×%d != %d×%d", again.Rows, again.Cols, got.Rows, got.Cols)
		}
		for i := range got.Data {
			if !sameFloatBits(again.Data[i], got.Data[i]) {
				t.Fatalf("round-trip element %d: %v != %v", i, again.Data[i], got.Data[i])
			}
		}
	})
}
