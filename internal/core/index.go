package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"fexipro/internal/svd"
	"fexipro/internal/vec"
)

// Index is a preprocessed FEXIPRO item index (the output of Algorithm 3).
// It is immutable after construction and safe for concurrent Search calls
// through separate Retriever values (see NewRetriever).
type Index struct {
	opts Options
	n, d int
	w    int

	perm  []int     // perm[row] = original item ID (rows sorted by ‖p‖ desc)
	norms []float64 // original ‖p‖ per sorted row

	// Working representation: the SVD-transformed vectors p̄ when
	// opts.SVD, otherwise the (sorted) original vectors.
	bar     *vec.Matrix
	barTail []float64 // ‖p̄^h‖ over coordinates w..d per row
	thin    *svd.Thin // nil unless opts.SVD
	sigma   []float64 // singular values (nil unless opts.SVD)

	ints *intData // nil unless opts.Int
	red  *redData // nil unless opts.Reduction

	ablation Ablation // zero for every index NewIndex or ReadIndex returns
}

// intData holds the scaled integer approximation of Section 4.2 with the
// separate head/tail scaling of Equation 7. Every floor lies in
// [−o, o−1] with o = ⌈e⌉+1 (e·v/max at v = −max can round to just below
// −e), and newIntData holds e to 127 so every floor is an int8. The w head
// floors of a row live in 16-row blocks beside an int16 Σ|f|+w
// (vec.HeadLayout, DESIGN.md §3) so the head test of Eq. 6 is decided a
// block at a time; the d−w tail floors are row-major.
type intData struct {
	e                    float64
	maxHead, maxTail     float64 // max |p̄_s| over s<w resp. s≥w, across all items
	headScale, tailScale float64 // maxHead/e, maxTail/e — converts IU to a q̄-space factor

	lay  vec.HeadLayout
	head vec.HeadTable // the head floors in lay's blocks, rows past n zero, and Σ_{s<w} |⌊p̂_s⌋| + w per row

	tail       []int8  // n×(d−w) tail floors, row-major
	sumAbsTail []int32 // Σ_{s≥w} |⌊p̂_s⌋| per row
}

// redData holds the monotonicity-reduction preprocessing of Section 5.2.
//
// With c fixed, the reduced product collapses to an affine map of the
// working-space product (the per-item Σ c_s·p̄_s terms cancel between
// 2q́ᵀṕ and ‖ṕ‖²):
//
//	q̂̂ᵀp̂̂ = (2/‖q̄‖)·q̄ᵀp̄ + K_q,   K_q = −b² + Σc_s² + (2/‖q̄‖)·Σc_s·q̄_s
//
// so the threshold map t → t′ (Algorithm 4 line 17) is one affine map per
// query, while the PARTIAL reduced product still needs per-item constants:
//
//	q̂̂^ℓᵀp̂̂^ℓ = (2/‖q̄‖)·v + headConstP[i] + headConstQ
//
// with v the exact partial product over the first w working dimensions.
type redData struct {
	c          []float64 // c_s ≥ max(1,|p̄min|), skewed like σ (Section 5.2)
	b          float64   // max ‖p̄‖
	sumC2      float64   // Σ c_s²
	headConstP []float64 // −‖ṕ‖² + 2Σ_{s<w}(c_s·p̄_s + c_s²) per row
	hhTail     []float64 // ‖p̂̂^h‖ = sqrt(Σ_{s≥w}(p̄_s+c_s)²) per row
}

// NewIndex preprocesses the item matrix (rows are item vectors) per
// Algorithm 3. The input matrix is copied; the caller's data is never
// modified. Catalogs of a few thousand rows and more are built on
// GOMAXPROCS goroutines (vec.ForRows); the index is the same bytes
// whatever that number is (DESIGN.md "Parallel preprocessing"). A
// catalog with a NaN or infinite coordinate, or whose squared norms
// overflow float64, is refused with an ErrNotFinite-wrapping error, one
// the SVD cannot transform losslessly with an ErrIllConditioned-wrapping
// one.
func NewIndex(items *vec.Matrix, opts Options) (*Index, error) {
	return newIndex(items, opts, Ablation{})
}

func newIndex(items *vec.Matrix, opts Options, ab Ablation) (*Index, error) {
	// withDefaults tests ranges with <, which NaN passes: a NaN Rho would
	// silently select w = d−1 and a NaN PruneSlack would switch every
	// prune off.
	for _, f := range []struct {
		name string
		v    float64
	}{{"E", opts.E}, {"Rho", opts.Rho}, {"PruneSlack", opts.PruneSlack}, {"RankTol", opts.RankTol}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("core: Options.%s = %v is not finite", f.name, f.v)
		}
	}
	opts = opts.withDefaults()
	if items.Rows == 0 || items.Cols == 0 {
		return nil, fmt.Errorf("core: empty item matrix %d×%d", items.Rows, items.Cols)
	}
	norms, err := checkedNorms(items)
	if err != nil {
		return nil, err
	}

	// 1. Sort by decreasing original length (Algorithm 3 line 2).
	sorted, perm, norms := items.SortRowsByKeyDesc(norms)
	idx := &Index{opts: opts, n: items.Rows, d: items.Cols, perm: perm, norms: norms, ablation: ab}

	// 2. Thin SVD (line 3) and the working representation.
	if opts.SVD {
		thin, err := svd.Decompose(sorted, opts.RankTol)
		if err != nil {
			return nil, fmt.Errorf("core: SVD transformation failed: %w", err)
		}
		idx.thin = thin
		idx.sigma = thin.Sigma
		idx.bar = thin.V1
	} else {
		idx.bar = sorted
	}

	// 3. Checking dimension w (line 4).
	idx.w = idx.chooseW()

	// 4. Residual norms for incremental pruning (line 11).
	idx.barTail = make([]float64, idx.n)
	vec.ForRows(idx.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			idx.barTail[i] = vec.NormRange(idx.bar.Row(i), idx.w, idx.d)
		}
	})

	// 5. Integer approximation (line 8).
	if opts.Int {
		ints, err := buildIntData(idx.bar, idx.w, opts.E, ab.GlobalIntScaling)
		if err != nil {
			return nil, err
		}
		idx.ints = ints
	}

	// 6. Monotonicity reduction (line 9).
	if opts.Reduction {
		idx.red = buildRedData(idx.bar, idx.w, idx.sigma)
	}
	return idx, nil
}

// ErrNotFinite is wrapped by every error that rejects an item vector
// because a coordinate is NaN or infinite, or because its squared norm
// (or the catalog's Σ‖p‖²) overflows float64. The Gram matrix of such a
// catalog is not finite and no decomposition of it means anything.
var ErrNotFinite = errors.New("item vector is not finite")

// MaxE is the largest Options.E the integer bound takes: at e ≤ 127 every
// floor, in [−⌈e⌉−1, ⌈e⌉], is an int8.
const MaxE = 127

// ErrIntDomain is wrapped by the error, naming Options.E, that refuses an
// E above MaxE, more head floors than an int16 Σ|f|+w admits (w > 254 at
// e = 127), or a tail whose dot could leave vec.DotTail's int32 lanes.
var ErrIntDomain = errors.New("outside the integer bound's domain")

// ErrIllConditioned is wrapped by NewIndex's error when Options.SVD is set
// and one item is so much larger than the rest (≳ 10¹³ ×) that the rank
// tolerance would drop directions other items live in: the transform
// would no longer preserve inner products, so there is no index to build.
var ErrIllConditioned = svd.ErrIllConditioned

// checkedNorms returns ‖p‖ for every row of items, or the error of the
// first row that has no finite norm.
func checkedNorms(items *vec.Matrix) ([]float64, error) {
	norms := make([]float64, items.Rows)
	var mu sync.Mutex
	bad := items.Rows
	vec.ForRows(items.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// A NaN or ±Inf coordinate makes the norm NaN or +Inf too.
			norms[i] = vec.Norm(items.Row(i))
			if math.IsNaN(norms[i]) || math.IsInf(norms[i], 0) {
				mu.Lock()
				bad = min(bad, i)
				mu.Unlock()
				return
			}
		}
	})
	if bad < items.Rows {
		return nil, checkItem(items.Row(bad), fmt.Sprintf("item matrix row %d", bad))
	}
	var total float64
	for _, nrm := range norms {
		total += nrm * nrm
	}
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("core: item matrix Σ‖p‖² overflows float64: %w", ErrNotFinite)
	}
	return norms, nil
}

// checkItem returns an ErrNotFinite-wrapping error naming what is wrong
// with item, or nil when every coordinate and the squared norm are
// finite. what names the vector in the message.
func checkItem(item []float64, what string) error {
	for s, v := range item {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: %s contains non-finite value at col %d: %w", what, s, ErrNotFinite)
		}
	}
	if math.IsInf(vec.NormSquared(item), 0) {
		return fmt.Errorf("core: %s has a squared norm that overflows float64: %w", what, ErrNotFinite)
	}
	return nil
}

// chooseW picks the checking dimension: the explicit override, else the
// smallest w whose singular-value mass reaches ρ (Section 3), else d/5.
func (idx *Index) chooseW() int {
	d := idx.d
	if idx.opts.W > 0 {
		if idx.opts.W > d {
			return d
		}
		return idx.opts.W
	}
	if d == 1 {
		return 1
	}
	if idx.sigma != nil {
		var total float64
		for _, s := range idx.sigma {
			total += s
		}
		if total > 0 {
			var acc float64
			for i, s := range idx.sigma {
				acc += s
				if acc >= idx.opts.Rho*total {
					w := i + 1
					if w >= d {
						w = d - 1
					}
					return w
				}
			}
		}
		return d - 1
	}
	w := d / 5
	if w < 1 {
		w = 1
	}
	if w >= d {
		w = d - 1
	}
	return w
}

// newIntData validates e for the integer bound at this shape, picks the
// head layout and allocates the per-row tables for setRow.
func newIntData(n, d, w int, e float64) (*intData, error) {
	// Every floor lies in [−o, o−1]: o ≤ 128 keeps the floors inside int8,
	// the layout keeps a row's Σ|f|+w inside int16, and (d−w)·o² < 2³¹
	// keeps DotTail's int32 lanes exact — and so Σ|tail floors| inside
	// sumAbsTail.
	o := math.Ceil(e) + 1
	if !(o >= 2 && o <= MaxE+1) {
		return nil, fmt.Errorf("core: Options.E = %v is not in (0, %d]: %w", e, MaxE, ErrIntDomain)
	}
	lay, ok := vec.NewHeadLayout(int64(o), w)
	if !ok {
		return nil, fmt.Errorf("core: Options.E = %v admits at most %d head floors, w = %d: %w", e, math.MaxInt16/int(o+1), w, ErrIntDomain)
	}
	if !(float64(d-w)*o*o < 1<<31) {
		return nil, fmt.Errorf("core: Options.E = %v overflows the tail bound at d−w = %d: %w", e, d-w, ErrIntDomain)
	}
	id := &intData{
		e:          e,
		lay:        lay,
		head:       lay.NewTable(n),
		tail:       make([]int8, n*(d-w)),
		sumAbsTail: make([]int32, n),
	}
	return id, nil
}

// setRow stores row i's d floors — head into its block, tail narrowed —
// with their Σ|·| terms, and returns Σ_{s<w}|f_s|. ok is false when a
// floor lies outside [−o, o−1], which only a corrupt snapshot can cause.
func (id *intData) setRow(i, w int, f []int32) (sumAbsHead int64, ok bool) {
	var sumAbsTail int64
	sumAbsHead, ok = id.head.PackRow(i, f[:w])
	o := int32(id.lay.Offset())
	tail := id.tail[i*(len(f)-w):]
	for s, x := range f[w:] {
		sumAbsTail += abs64(int64(x))
		ok = ok && -o <= x && x < o
		tail[s] = int8(x)
	}
	id.sumAbsTail[i] = int32(sumAbsTail)
	return sumAbsHead, ok
}

// row inverts setRow: f receives row i's d floors; it returns Σ_{s<w}|f_s|.
func (id *intData) row(i, w int, f []int32) (sumAbsHead int64) {
	for s, x := range id.tail[i*(len(f)-w) : (i+1)*(len(f)-w)] {
		f[w+s] = int32(x)
	}
	return id.head.UnpackRow(f[:w], i)
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// buildIntData scales the working vectors per Equation 7 (separate
// head/tail maxima) — or Equation 4 (one global maximum) under
// Ablation.GlobalIntScaling — and stores their floors plus the per-row
// Σ|⌊·⌋| terms of the integer bound (Theorem 2).
func buildIntData(bar *vec.Matrix, w int, e float64, globalScaling bool) (*intData, error) {
	n, d := bar.Rows, bar.Cols
	id, err := newIntData(n, d, w, e)
	if err != nil {
		return nil, err
	}
	// Maxima are exact, so folding per-range maxima in whatever order the
	// workers finish gives the bits of one pass over all rows (likewise
	// the lowest failing row below, and the min and max in buildRedData).
	var mu sync.Mutex
	vec.ForRows(n, func(lo, hi int) {
		var maxHead, maxTail float64
		for i := lo; i < hi; i++ {
			row := bar.Row(i)
			maxHead = max(maxHead, vec.AbsMaxRange(row, 0, w))
			maxTail = max(maxTail, vec.AbsMaxRange(row, w, d))
		}
		mu.Lock()
		id.maxHead = max(id.maxHead, maxHead)
		id.maxTail = max(id.maxTail, maxTail)
		mu.Unlock()
	})
	if globalScaling {
		m := math.Max(id.maxHead, id.maxTail)
		id.maxHead, id.maxTail = m, m
	}
	id.headScale = id.maxHead / e
	id.tailScale = id.maxTail / e
	bad := n
	vec.ForRows(n, func(lo, hi int) {
		f := make([]int32, d)
		for i := lo; i < hi; i++ {
			for s, v := range bar.Row(i) {
				var scaled float64
				if s < w {
					if id.maxHead > 0 {
						scaled = e * v / id.maxHead
					}
				} else {
					if id.maxTail > 0 {
						scaled = e * v / id.maxTail
					}
				}
				f[s] = int32(math.Floor(scaled))
			}
			if _, ok := id.setRow(i, w, f); !ok {
				mu.Lock()
				bad = min(bad, i)
				mu.Unlock()
				return
			}
		}
	})
	if bad < n {
		return nil, fmt.Errorf("core: floor of row %d outside ±(⌈E⌉+1)", bad)
	}
	return id, nil
}

// buildRedData computes the Section 5.2 reduction constants over the
// working vectors. sigma may be nil (no SVD); the c skew then defaults
// to a constant shift.
func buildRedData(bar *vec.Matrix, w int, sigma []float64) *redData {
	n, d := bar.Rows, bar.Cols
	rd := &redData{
		c:          make([]float64, d),
		headConstP: make([]float64, n),
		hhTail:     make([]float64, n),
	}

	// p̄min and b = max ‖p̄‖ (the rows are sorted by ORIGINAL norm, which
	// differs from the working norm under SVD, so take the true maximum).
	// Only |p̄min| is used, so which zero a tie of ±0 picks is immaterial.
	pmin := math.Inf(1)
	var mu sync.Mutex
	vec.ForRows(n, func(lo, hi int) {
		lmin, lb := math.Inf(1), 0.0
		for i := lo; i < hi; i++ {
			row := bar.Row(i)
			lmin = min(lmin, vec.Min(row))
			lb = max(lb, vec.Norm(row))
		}
		mu.Lock()
		pmin = min(pmin, lmin)
		rd.b = max(rd.b, lb)
		mu.Unlock()
	})
	base := math.Max(1, math.Abs(pmin))
	// c_s = max(1,|p̄min|) + σ_s/σ_d — skewed like the singular values.
	sigmaLast := 0.0
	if sigma != nil {
		for i := len(sigma) - 1; i >= 0; i-- {
			if sigma[i] > 0 {
				sigmaLast = sigma[i]
				break
			}
		}
	}
	for s := 0; s < d; s++ {
		ratio := 1.0
		if sigma != nil && sigmaLast > 0 {
			ratio = sigma[s] / sigmaLast
		}
		rd.c[s] = base + ratio
		rd.sumC2 += rd.c[s] * rd.c[s]
	}

	var headC2 float64 // Σ_{s<w} c_s²
	for _, c := range rd.c[:w] {
		headC2 += c * c
	}
	vec.ForRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// ‖ṕ‖² = (b²−‖p̄‖²) + Σ(p̄_s+c_s)² = b² + 2Σc_s·p̄_s + Σc_s².
			row := bar.Row(i)
			var headCP, tailSq float64
			for s, v := range row[:w] {
				headCP += rd.c[s] * v
			}
			sumCP := headCP // Σ_s c_s·p̄_s is the head sum carried on
			for s, v := range row[w:] {
				c := rd.c[w+s]
				sumCP += c * v
				t := v + c
				tailSq += t * t
			}
			pAcuteSq := rd.b*rd.b + 2*sumCP + rd.sumC2
			rd.headConstP[i] = -pAcuteSq + 2*(headCP+headC2)
			rd.hhTail[i] = math.Sqrt(tailSq)
		}
	})
	return rd
}

// W returns the checking dimension chosen during preprocessing.
func (idx *Index) W() int { return idx.w }

// Dim returns the item dimensionality d.
func (idx *Index) Dim() int { return idx.d }

// Len returns the number of indexed items.
func (idx *Index) Len() int { return idx.n }

// Options returns the (defaulted) options the index was built with.
func (idx *Index) Options() Options { return idx.opts }

// SingularValues returns the singular values of the item matrix, or nil
// when the SVD transformation is disabled. The slice must not be
// modified.
func (idx *Index) SingularValues() []float64 { return idx.sigma }
