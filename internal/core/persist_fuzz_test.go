package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fexipro/internal/snap"
	"fexipro/internal/vec"
)

// Bits of FuzzReadIndex's flags argument.
const (
	fuzzSVD         = 1 << iota // Options.SVD
	fuzzInt                     // Options.Int
	fuzzReduction               // Options.Reduction
	fuzzSVDSection              // write idx.svd
	fuzzWideRows                // idx.rows one column wider than d
	fuzzAblated                 // set a removed option's slot in idx.meta
	fuzzNarrowBasis             // U one column narrower than d
)

// FuzzReadIndex writes index files from fuzzed FIELDS — every CRC valid,
// so the container layer lets them all through — and holds ReadIndex to:
// an error wrapping one of the three snap sentinels, or an index whose
// search neither panics nor returns an ID twice. flags picks the options
// and the sections (the fuzz* bits), e is Options.E, n/d/w the stored
// shape; perm is int64 words, rows float64 words laid out d to a row, and
// basis float64 words: a U of d rows as far as they go, then up to d of Σ.
func FuzzReadIndex(f *testing.F) {
	// add seeds the fields of idx's file, with extra flags set and, if
	// dup, the second ID of perm made a copy of the first.
	add := func(idx *Index, extra uint8, dup bool) {
		flags := extra
		if idx.opts.SVD {
			flags |= fuzzSVD | fuzzSVDSection
		}
		if idx.opts.Int {
			flags |= fuzzInt
		}
		if idx.opts.Reduction {
			flags |= fuzzReduction
		}
		var perm, rows, basis []byte
		for _, p := range idx.perm {
			perm = binary.LittleEndian.AppendUint64(perm, uint64(p))
		}
		for _, x := range idx.bar.Data {
			rows = binary.LittleEndian.AppendUint64(rows, math.Float64bits(x))
		}
		if idx.thin != nil {
			for _, x := range append(append([]float64(nil), idx.thin.U.Data...), idx.thin.Sigma...) {
				basis = binary.LittleEndian.AppendUint64(basis, math.Float64bits(x))
			}
		}
		if dup {
			copy(perm[8:16], perm[:8])
		}
		f.Add(flags, idx.opts.E, int16(idx.n), int16(idx.d), int16(idx.w), perm, rows, basis)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "fexsnap_v1_movielens.snap"))
	if err != nil {
		f.Fatal(err)
	}
	golden, err := ReadIndex(bytes.NewReader(raw))
	if err != nil {
		f.Fatal(err)
	}
	add(golden, 0, false)
	items := vec.NewMatrix(12, 4)
	for i := range items.Data {
		items.Data[i] = float64((i*7+i/4)%9 - 4)
	}
	for _, opts := range []Options{{}, {Int: true}, {SVD: true, Reduction: true}, {SVD: true, Int: true, Reduction: true, E: MaxE}} {
		idx, err := NewIndex(items, opts)
		if err != nil {
			f.Fatal(err)
		}
		add(idx, 0, false)
		// Files ReadIndex must refuse: an ID listed twice and, under SVD, a
		// basis one column short of d.
		add(idx, 0, true)
		add(idx, fuzzNarrowBasis, false)
	}

	f.Fuzz(func(t *testing.T, flags uint8, e float64, n, d, w int16, perm, rows, basis []byte) {
		words := func(b []byte) []float64 {
			out := make([]float64, len(b)/8)
			for i := range out {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
			return out
		}
		cols := 1
		if d >= 1 && d <= 64 {
			cols = int(d)
		}
		if flags&fuzzWideRows != 0 {
			cols++
		}
		opts := Options{SVD: flags&fuzzSVD != 0, Int: flags&fuzzInt != 0, Reduction: flags&fuzzReduction != 0}.withDefaults()
		opts.E = e
		x := words(rows)
		bar := &vec.Matrix{Rows: len(x) / cols, Cols: cols, Data: x[:len(x)/cols*cols]}

		var meta snap.Encoder
		encodeOptions(&meta, opts)
		if flags&fuzzAblated != 0 {
			meta.Bytes()[43] = 1 // the GlobalIntScaling slot, after 3 bools and 5 words
		}
		meta.I64(int64(n))
		meta.I64(int64(d))
		meta.I64(int64(w))
		var b snap.Builder
		b.Raw(secIdxMeta, meta.Bytes())
		b.Section(secIdxPerm, func(enc *snap.Encoder) {
			ids := make([]int, len(perm)/8)
			for i := range ids {
				ids[i] = int(int64(binary.LittleEndian.Uint64(perm[8*i:])))
			}
			enc.Ints(ids)
		})
		b.Section(secIdxNorm, func(enc *snap.Encoder) {
			norms := make([]float64, bar.Rows)
			for i := range norms {
				norms[i] = vec.Norm(bar.Row(i))
			}
			enc.Floats(norms)
		})
		b.Section(secIdxRows, func(enc *snap.Encoder) { enc.Matrix(bar) })
		if flags&fuzzSVDSection != 0 {
			b.Section(secIdxSVD, func(enc *snap.Encoder) {
				u, uRows, uCols := words(basis), cols, cols
				if flags&fuzzNarrowBasis != 0 {
					uCols--
				}
				if uCols > 0 {
					uRows = min(cols, len(u)/uCols)
				}
				enc.MatrixParts(uRows, uCols, u[:uRows*uCols])
				enc.Floats(u[uRows*uCols : min(len(u), uRows*uCols+cols)])
			})
		}
		var file bytes.Buffer
		if err := b.Flush(&file); err != nil {
			t.Fatal(err)
		}

		idx, err := ReadIndex(&file)
		if err != nil {
			if !errors.Is(err, snap.ErrBadMagic) && !errors.Is(err, snap.ErrChecksum) && !errors.Is(err, snap.ErrTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		r := NewRetriever(idx)
		q := make([]float64, idx.d)
		for _, fill := range []func(s int) float64{
			func(int) float64 { return 1 },
			func(s int) float64 { return float64(s%3 - 1) },
		} {
			for s := range q {
				q[s] = fill(s)
			}
			for _, k := range []int{1, 3, idx.n + 1} {
				seen := map[int]bool{}
				for _, res := range r.Search(q, k) {
					if res.ID < 0 || res.ID >= idx.n || seen[res.ID] {
						t.Fatalf("k=%d: item %d is out of range or repeated", k, res.ID)
					}
					seen[res.ID] = true
				}
			}
		}
	})
}
