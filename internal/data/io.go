package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"fexipro/internal/vec"
)

// Binary factor file format ("FXP1"): a tiny self-describing container so
// cmd/fexgen output can be reloaded by cmd/fexquery and cmd/fexbench.
//
//	magic   [4]byte  "FXP1"
//	rows    uint32
//	cols    uint32
//	data    rows*cols float64, little-endian, row-major
const factorMagic = "FXP1"

// WriteMatrixBinary writes m in the FXP1 format.
func WriteMatrixBinary(w io.Writer, m *vec.Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(factorMagic); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(m.Rows))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(m.Cols))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMatrixBinary parses an FXP1 matrix.
func ReadMatrixBinary(r io.Reader) (*vec.Matrix, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("data: reading magic: %w", err)
	}
	if string(magic) != factorMagic {
		return nil, fmt.Errorf("data: bad magic %q, want %q", magic, factorMagic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("data: reading header: %w", err)
	}
	// The shape is read in int64, where any two uint32 multiply exactly;
	// on a 32-bit target rows, cols and their product must also fit int.
	rows := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	cols := int64(binary.LittleEndian.Uint32(hdr[4:8]))
	if (cols != 0 && rows > (1<<31)/cols) || max(rows, cols, rows*cols) > math.MaxInt {
		return nil, fmt.Errorf("data: implausible shape %d×%d", rows, cols)
	}
	// Grow the backing slice as data actually arrives instead of trusting
	// the header: a 12-byte file claiming a 2^31-element matrix must fail
	// with a truncation error, not a multi-gigabyte allocation. (Found by
	// FuzzReadMatrixBinary; testdata/fuzz keeps the regression seed.)
	total := int(rows * cols)
	const chunkElems = 64 << 10
	capHint := total
	if capHint > chunkElems {
		capHint = chunkElems
	}
	data := make([]float64, 0, capHint)
	buf := make([]byte, 8*chunkElems)
	for len(data) < total {
		n := total - len(data)
		if n > chunkElems {
			n = chunkElems
		}
		if _, err := io.ReadFull(br, buf[:8*n]); err != nil {
			return nil, fmt.Errorf("data: reading element %d: %w", len(data), err)
		}
		for k := 0; k < n; k++ {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*k:])))
		}
	}
	return &vec.Matrix{Rows: int(rows), Cols: int(cols), Data: data}, nil
}

// SaveMatrix writes m to path in FXP1 format.
func SaveMatrix(path string, m *vec.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMatrixBinary(f, m); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// LoadMatrix reads an FXP1 matrix from path.
func LoadMatrix(path string) (*vec.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrixBinary(f)
}

// WriteMatrixCSV writes m as comma-separated rows.
func WriteMatrixCSV(w io.Writer, m *vec.Matrix) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMatrixCSV parses comma-separated rows into a matrix. All rows must
// have the same number of fields; blank lines are skipped.
func ReadMatrixCSV(r io.Reader) (*vec.Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var rows [][]float64
	cols := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if cols == -1 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, fmt.Errorf("data: line %d has %d fields, want %d", lineNo, len(fields), cols)
		}
		row := make([]float64, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("data: line %d field %d: %w", lineNo, j+1, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return vec.FromRows(rows), nil
}
