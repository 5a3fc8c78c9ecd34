package core

import (
	"fmt"
	"io"
	"math"

	"fexipro/internal/snap"
	"fexipro/internal/svd"
)

// Index persistence: the sort and the thin SVD cost O(n·d²), so a
// deployed service wants to preprocess once and load the finished index
// at startup. Indexes are written as fexsnap/v1 containers (internal/snap,
// DESIGN.md §15) holding only what is expensive to recompute, one
// checksummed section per component: options and shape, the norm order,
// the norms, the working rows and, under SVD, the basis. The tail norms,
// integer tables and reduction data are one pass over the rows each, and
// ReadIndex derives them with the function NewIndex uses, so a loaded
// index is the saved one table for table. A damaged file fails with a
// typed error instead of loading a silently wrong index, and unknown
// sections — from newer writers, or the idx.tail, idx.ints and idx.red of
// files written before the tables were derived — are checked and skipped.

// Section tags of a core.Index snapshot.
const (
	secIdxMeta = "idx.meta" // Options + n/d/w
	secIdxPerm = "idx.perm" // norm-descending permutation
	secIdxNorm = "idx.norm" // item norms (permuted order)
	secIdxRows = "idx.rows" // transformed item matrix (bar)
	secIdxSVD  = "idx.svd"  // thin SVD basis, present exactly when Options.SVD
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
	if idx.thin != nil {
		b.Section(secIdxSVD, func(e *snap.Encoder) {
			e.Matrix(idx.thin.U)
			e.Floats(idx.thin.Sigma)
		})
	}
	return b.Flush(w)
}

// encodeOptions and decodeOptions fix the on-disk field order of
// Options, shared by the static index and DynamicIndex snapshots. The
// four trailing bools are slots of options that no longer exist —
// GlobalIntScaling, ReductionFirst, Unsorted, CompactInts. One of the
// first three set means an index this code cannot scan, and is refused.
// The fourth, once CompactInts (which chose between two encodings of the
// same floors), now says that a derived w is rounded up to the head
// kernel's step: every file written before the rounding holds false
// there and rebuilds with ρ's w unrounded (Options.rhoW), and a reader
// before it ignores the slot.
func encodeOptions(e *snap.Encoder, o Options) {
	e.Bool(o.SVD)
	e.Bool(o.Int)
	e.Bool(o.Reduction)
	e.F64(o.Rho)
	e.F64(o.E)
	e.I64(int64(o.W))
	e.F64(o.PruneSlack)
	e.F64(o.RankTol)
	for slot := 0; slot < 3; slot++ {
		e.Bool(false)
	}
	e.Bool(!o.rhoW)
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
	o.rhoW = !d.Bool()
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

// ReadIndex deserializes an index written by Save and derives the tables
// Save leaves out. Every error wraps one of snap.ErrBadMagic,
// snap.ErrChecksum, snap.ErrTruncated.
func ReadIndex(r io.Reader) (*Index, error) {
	f, err := snap.Read(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	idx := &Index{}
	var optsErr error
	var thin svd.Thin
	_, hasSVD := f.Section(secIdxSVD)
	for _, s := range []struct {
		tag string
		fn  func(d *snap.Decoder)
	}{
		{secIdxMeta, func(d *snap.Decoder) {
			idx.opts, optsErr = decodeOptions(d)
			idx.n, idx.d, idx.w = int(d.I64()), int(d.I64()), int(d.I64())
		}},
		{secIdxPerm, func(d *snap.Decoder) { idx.perm = d.Ints() }},
		{secIdxNorm, func(d *snap.Decoder) { idx.norms = d.Floats() }},
		{secIdxRows, func(d *snap.Decoder) { idx.bar = d.Matrix() }},
		{secIdxSVD, func(d *snap.Decoder) { thin.U, thin.Sigma = d.Matrix(), d.Floats() }},
	} {
		if s.tag == secIdxSVD && !hasSVD {
			continue
		}
		d, err := sectionDecoder(f, s.tag)
		if err != nil {
			return nil, err
		}
		s.fn(d)
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("core: index section %q: %w", s.tag, err)
		}
	}
	if optsErr != nil {
		return nil, optsErr
	}
	if hasSVD {
		thin.V1 = idx.bar
		idx.thin, idx.sigma = &thin, thin.Sigma
	}
	if err := idx.validateLoaded(); err != nil {
		return nil, err
	}
	if err := idx.derive(); err != nil {
		return nil, fmt.Errorf("%w: loaded index: %w", snap.ErrChecksum, err)
	}
	return idx, nil
}

// validateLoaded checks what derive and a scan index by, so a file whose
// CRCs are good but which no Save wrote cannot load into an index that
// panics or answers one item twice: the shape, idx.svd present exactly
// when Options.SVD with a d×d basis and d singular values, perm a
// permutation of [0, n), and every stored value finite — a NaN coordinate
// would give floors that differ between platforms. The error wraps
// snap.ErrChecksum: the container parsed, the content lies.
func (idx *Index) validateLoaded() error {
	n, d, thin := idx.n, idx.d, idx.thin
	switch {
	case n <= 0 || d <= 0 || idx.w < 1 || idx.w > d:
		return fmt.Errorf("%w: loaded index has invalid shape n=%d d=%d w=%d", snap.ErrChecksum, n, d, idx.w)
	case idx.bar == nil || idx.bar.Rows != n || idx.bar.Cols != d || len(idx.perm) != n || len(idx.norms) != n:
		return fmt.Errorf("%w: loaded index tables do not match n=%d d=%d", snap.ErrChecksum, n, d)
	case (thin != nil) != idx.opts.SVD:
		return fmt.Errorf("%w: loaded index has idx.svd = %v under Options.SVD = %v", snap.ErrChecksum, thin != nil, idx.opts.SVD)
	case thin != nil && (thin.U == nil || thin.U.Rows != d || thin.U.Cols != d || len(thin.Sigma) != d):
		return fmt.Errorf("%w: loaded index SVD basis is not %d×%d with %d singular values", snap.ErrChecksum, d, d, d)
	case !finite(idx.bar.Data) || !finite(idx.norms) || thin != nil && (!finite(thin.U.Data) || !finite(thin.Sigma)):
		return fmt.Errorf("%w: loaded index holds a non-finite value", snap.ErrChecksum)
	}
	seen := make([]bool, n)
	for _, id := range idx.perm {
		if id < 0 || id >= n || seen[id] {
			return fmt.Errorf("%w: loaded index order is not a permutation of [0, %d)", snap.ErrChecksum, n)
		}
		seen[id] = true
	}
	return nil
}

// finite reports whether every value in xs is neither NaN nor ±Inf.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x - x) { // NaN exactly when x is NaN or ±Inf
			return false
		}
	}
	return true
}
