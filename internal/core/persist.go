package core

import (
	"fmt"
	"io"

	"fexipro/internal/snap"
	"fexipro/internal/svd"
)

// Index persistence: preprocessing costs O(n·d²) (thin SVD plus derived
// arrays), so a deployed service wants to preprocess once and load the
// finished index at startup. Indexes are written as fexsnap/v1
// containers (internal/snap, DESIGN.md §15): one checksummed section
// per component, so a damaged file fails with a typed error instead of
// loading a silently wrong index, and unknown sections from newer
// writers are skipped. Load rebuilds an Index that answers queries
// bit-identically to the one that was saved.

// Section tags of a core.Index snapshot.
const (
	secIdxMeta = "idx.meta" // Options + n/d/w
	secIdxPerm = "idx.perm" // norm-descending permutation
	secIdxNorm = "idx.norm" // item norms (permuted order)
	secIdxRows = "idx.rows" // transformed item matrix (bar)
	secIdxTail = "idx.tail" // per-item tail norms
	secIdxSVD  = "idx.svd"  // thin SVD basis (optional)
	secIdxInts = "idx.ints" // scaled-integer tables (optional)
	secIdxRed  = "idx.red"  // monotone reduction data (optional)
)

// Save writes the index as a fexsnap/v1 container. An index built with
// an Ablation is refused: the format has no place for one, and a reader
// would scan it as the plain variant.
func (idx *Index) Save(w io.Writer) error {
	if idx.ablation != (Ablation{}) {
		return fmt.Errorf("core: an ablation index (%+v) cannot be saved", idx.ablation)
	}
	var b snap.Builder
	b.Section(secIdxMeta, func(e *snap.Encoder) {
		encodeOptions(e, idx.opts)
		e.I64(int64(idx.n))
		e.I64(int64(idx.d))
		e.I64(int64(idx.w))
	})
	b.Section(secIdxPerm, func(e *snap.Encoder) { e.Ints(idx.perm) })
	b.Section(secIdxNorm, func(e *snap.Encoder) { e.Floats(idx.norms) })
	b.Section(secIdxRows, func(e *snap.Encoder) { e.Matrix(idx.bar) })
	b.Section(secIdxTail, func(e *snap.Encoder) { e.Floats(idx.barTail) })
	if idx.thin != nil {
		b.Section(secIdxSVD, func(e *snap.Encoder) {
			e.Matrix(idx.thin.U)
			e.Floats(idx.thin.Sigma)
		})
	}
	if id := idx.ints; id != nil {
		// fexsnap/v1 stores the full n×d floors and Σ|head floors|; the
		// packed head is unpacked here and re-packed by ReadIndex.
		n, d := idx.n, idx.d
		floors := make([]int16, n*d)
		sumAbsHead, sumAbsTail := make([]int64, n), make([]int64, n)
		f := make([]int32, d)
		for i := 0; i < n; i++ {
			sumAbsHead[i], sumAbsTail[i] = id.row(i, idx.w, f), int64(id.sumAbsTail[i])
			for s, x := range f {
				floors[i*d+s] = int16(x)
			}
		}
		b.Section(secIdxInts, func(e *snap.Encoder) {
			e.F64(id.e)
			e.F64(id.maxHead)
			e.F64(id.maxTail)
			e.F64(id.headScale)
			e.F64(id.tailScale)
			e.Bool(true) // int16 floors; the int32 encoding is only read
			e.Int16s(floors)
			e.Int64s(sumAbsHead)
			e.Int64s(sumAbsTail)
		})
	}
	if rd := idx.red; rd != nil {
		b.Section(secIdxRed, func(e *snap.Encoder) {
			e.Floats(rd.c)
			e.F64(rd.b)
			e.F64(rd.sumC2)
			e.Floats(rd.headConstP)
			e.Floats(rd.hhTail)
		})
	}
	return b.Flush(w)
}

// WriteTo serializes the index (fexsnap/v1) and returns the number of
// bytes written. It is Save with byte accounting, kept for the public
// SaveIndex API.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	err := idx.Save(cw)
	return cw.n, err
}

// encodeOptions and decodeOptions fix the on-disk field order of
// Options, shared by the static index and DynamicIndex snapshots. The
// four trailing bools are the slots of options that no longer exist —
// GlobalIntScaling, ReductionFirst, Unsorted, CompactInts — written false
// so files of either age read under either code. One of the first three
// set means an index this code cannot scan, and is refused; CompactInts
// only chose between two encodings of the same floors and is ignored.
func encodeOptions(e *snap.Encoder, o Options) {
	e.Bool(o.SVD)
	e.Bool(o.Int)
	e.Bool(o.Reduction)
	e.F64(o.Rho)
	e.F64(o.E)
	e.I64(int64(o.W))
	e.F64(o.PruneSlack)
	e.F64(o.RankTol)
	for slot := 0; slot < 4; slot++ {
		e.Bool(false)
	}
}

func decodeOptions(d *snap.Decoder) (Options, error) {
	var o Options
	o.SVD = d.Bool()
	o.Int = d.Bool()
	o.Reduction = d.Bool()
	o.Rho = d.F64()
	o.E = d.F64()
	o.W = int(d.I64())
	o.PruneSlack = d.F64()
	o.RankTol = d.F64()
	ablated := false
	for slot := 0; slot < 3; slot++ {
		ablated = d.Bool() || ablated
	}
	_ = d.Bool()
	if ablated && d.Err() == nil {
		return o, fmt.Errorf("%w: snapshot of an index built with an ablation switch set", snap.ErrChecksum)
	}
	return o, nil
}

// sectionDecoder returns a Decoder over a mandatory section, or a typed
// error if the section is absent (a renamed/lost section reads as
// corruption: the bytes are there, the structure is not).
func sectionDecoder(f *snap.File, tag string) (*snap.Decoder, error) {
	payload, ok := f.Section(tag)
	if !ok {
		return nil, fmt.Errorf("%w: index snapshot missing section %q", snap.ErrChecksum, tag)
	}
	return snap.NewDecoder(payload), nil
}

// ReadIndex deserializes an index written by Save/WriteTo. Every error
// wraps one of snap.ErrBadMagic, snap.ErrChecksum, snap.ErrTruncated.
func ReadIndex(r io.Reader) (*Index, error) {
	f, err := snap.Read(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	return indexFromSnap(f)
}

func indexFromSnap(f *snap.File) (*Index, error) {
	d, err := sectionDecoder(f, secIdxMeta)
	if err != nil {
		return nil, err
	}
	idx := &Index{}
	if idx.opts, err = decodeOptions(d); err != nil {
		return nil, err
	}
	idx.n = int(d.I64())
	idx.d = int(d.I64())
	idx.w = int(d.I64())
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: index meta: %w", err)
	}

	simple := []struct {
		tag string
		fn  func(d *snap.Decoder)
	}{
		{secIdxPerm, func(d *snap.Decoder) { idx.perm = d.Ints() }},
		{secIdxNorm, func(d *snap.Decoder) { idx.norms = d.Floats() }},
		{secIdxRows, func(d *snap.Decoder) { idx.bar = d.Matrix() }},
		{secIdxTail, func(d *snap.Decoder) { idx.barTail = d.Floats() }},
	}
	for _, s := range simple {
		d, err := sectionDecoder(f, s.tag)
		if err != nil {
			return nil, err
		}
		s.fn(d)
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("core: index section %q: %w", s.tag, err)
		}
	}

	if payload, ok := f.Section(secIdxSVD); ok {
		d := snap.NewDecoder(payload)
		thin := &svd.Thin{U: d.Matrix(), Sigma: d.Floats()}
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("core: index SVD section: %w", err)
		}
		if idx.bar != nil {
			thin.V1 = idx.bar
		}
		idx.thin = thin
		idx.sigma = thin.Sigma
	}

	if payload, ok := f.Section(secIdxInts); ok {
		id, err := decodeIntData(snap.NewDecoder(payload), idx.n, idx.d, idx.w)
		if err != nil {
			return nil, err
		}
		idx.ints = id
	}

	if payload, ok := f.Section(secIdxRed); ok {
		d := snap.NewDecoder(payload)
		rd := &redData{}
		rd.c = d.Floats()
		rd.b = d.F64()
		rd.sumC2 = d.F64()
		rd.headConstP = d.Floats()
		rd.hhTail = d.Floats()
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("core: index reduction section: %w", err)
		}
		idx.red = rd
	}

	if err := idx.validateLoaded(); err != nil {
		return nil, err
	}
	return idx, nil
}

// decodeIntData reads the idx.ints section (full n×d floors, as int16 or
// — from a writer before the tail was narrowed — int32, plus both Σ|·|
// arrays) and rebuilds the in-memory form: head floors packed, tail
// floors in their own stripe. n, d, w come from the meta section; the
// shape is checked before anything is indexed, every floor must lie in
// the range its E allows, and the stored Σ|·| arrays must match the
// floors they summarize.
func decodeIntData(dec *snap.Decoder, n, d, w int) (*intData, error) {
	e := dec.F64()
	maxHead, maxTail := dec.F64(), dec.F64()
	headScale, tailScale := dec.F64(), dec.F64()
	var floors []int32
	var floors16 []int16
	if dec.Bool() {
		floors16 = dec.Int16s()
	} else {
		floors = dec.Int32s()
	}
	sumAbsHead := dec.Int64s()
	sumAbsTail := dec.Int64s()
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("core: index integer section: %w", err)
	}
	if n <= 0 || d <= 0 || w < 1 || w > d || len(floors)+len(floors16) != n*d ||
		len(sumAbsHead) != n || len(sumAbsTail) != n {
		return nil, fmt.Errorf("%w: loaded index integer data does not match shape n=%d d=%d w=%d", snap.ErrChecksum, n, d, w)
	}
	id, err := newIntData(n, d, w, e)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", snap.ErrChecksum, err)
	}
	id.maxHead, id.maxTail = maxHead, maxTail
	id.headScale, id.tailScale = headScale, tailScale
	f := make([]int32, d)
	for i := 0; i < n; i++ {
		if floors16 != nil {
			for s, x := range floors16[i*d : (i+1)*d] {
				f[s] = int32(x)
			}
		} else {
			f = floors[i*d : (i+1)*d]
		}
		sh, ok := id.setRow(i, w, f)
		if !ok || sh != sumAbsHead[i] || int64(id.sumAbsTail[i]) != sumAbsTail[i] {
			return nil, fmt.Errorf("%w: loaded index integer data inconsistent at row %d", snap.ErrChecksum, i)
		}
	}
	return id, nil
}

// validateLoaded sanity-checks structural consistency of a deserialized
// index so a truncated or corrupted file cannot cause panics later. The
// error wraps snap.ErrChecksum: the container parsed, the content lies.
func (idx *Index) validateLoaded() error {
	if idx.n <= 0 || idx.d <= 0 || idx.w < 1 || idx.w > idx.d {
		return fmt.Errorf("%w: loaded index has invalid shape n=%d d=%d w=%d", snap.ErrChecksum, idx.n, idx.d, idx.w)
	}
	if idx.bar == nil || idx.bar.Rows != idx.n || idx.bar.Cols != idx.d {
		return fmt.Errorf("%w: loaded index matrix shape mismatch", snap.ErrChecksum)
	}
	if len(idx.perm) != idx.n || len(idx.norms) != idx.n || len(idx.barTail) != idx.n {
		return fmt.Errorf("%w: loaded index per-item arrays mismatch n=%d", snap.ErrChecksum, idx.n)
	}
	if idx.opts.SVD && (idx.thin == nil || idx.thin.U == nil || idx.thin.U.Rows != idx.d || len(idx.thin.Sigma) != idx.d) {
		return fmt.Errorf("%w: loaded index missing SVD data", snap.ErrChecksum)
	}
	if idx.opts.Int {
		if idx.ints == nil {
			return fmt.Errorf("%w: loaded index missing integer data", snap.ErrChecksum)
		}
	}
	if idx.opts.Reduction {
		rd := idx.red
		if rd == nil || len(rd.c) != idx.d || len(rd.headConstP) != idx.n || len(rd.hhTail) != idx.n {
			return fmt.Errorf("%w: loaded index missing reduction data", snap.ErrChecksum)
		}
	}
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
