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
// It is immutable after construction and safe for concurrent searches
// through separate engines over it (engine.New(NewSharded(idx, s), w)).
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
// Algorithm 3. The input matrix is copied once, in norm order, and the
// SVD's V₁ is written over that copy, so a build holds one n×d matrix
// besides the caller's, which is never modified. Catalogs of a few
// thousand rows and more are built on
// GOMAXPROCS goroutines (vec.ForRows); the index is the same bytes
// whatever that number is (DESIGN.md "Parallel preprocessing"). A
// catalog with a NaN or infinite coordinate, or whose squared norms
// overflow float64, is refused with an ErrNotFinite-wrapping error, one
// the SVD cannot transform losslessly with an ErrIllConditioned-wrapping
// one.
func NewIndex(items *vec.Matrix, opts Options) (*Index, error) {
	cat := catalogOf(items)
	return newIndex(&cat, nil, opts, Ablation{})
}

// newIndex builds the index over the rows of cat with IDs ids, in that
// order, or over all of cat in ID order when ids is nil. The rows are read
// in place: the one copy of them is the norm-sorted gather, which becomes
// the working representation.
func newIndex(cat *catalog, ids []int, opts Options, ab Ablation) (*Index, error) {
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
	n := len(ids)
	if ids == nil {
		n = cat.rows
	}
	if n == 0 || cat.d == 0 {
		return nil, fmt.Errorf("core: empty item matrix %d×%d", n, cat.d)
	}
	norms, err := checkedNorms(cat, ids, n)
	if err != nil {
		return nil, err
	}

	// 1. Sort by decreasing original length (Algorithm 3 line 2).
	perm := vec.DescendingOrder(norms)
	sorted := gatherRows(cat, ids, perm)
	sortedNorms := make([]float64, n)
	for i, row := range perm {
		sortedNorms[i] = norms[row]
	}
	idx := &Index{opts: opts, n: n, d: cat.d, perm: perm, norms: sortedNorms, ablation: ab}

	// 2. Thin SVD (line 3) and the working representation: V₁ is written
	// over the gathered rows, which nothing reads again.
	if opts.SVD {
		thin, err := svd.DecomposeInPlace(sorted, opts.RankTol)
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
	if err := idx.derive(); err != nil {
		return nil, err
	}
	return idx, nil
}

// derive computes the tables Algorithm 3 lines 8, 9 and 11 make from the
// working vectors — the tail norms, the integer floors and the reduction
// constants — from opts, w, bar, sigma and the ablation, in two passes
// over bar (DESIGN.md §17): rowSums, then rowTables with the extrema the
// first folded. newIndex calls it after the SVD and ReadIndex after
// decoding what the file stores, so a loaded index holds the built one's
// tables because one function made both.
func (idx *Index) derive() error {
	return idx.rowTables(idx.rowSums())
}

// rowExtrema is what rowSums folds over all rows. Maxima and minima are
// exact, so folding per-range ones in whatever order the workers finish
// gives the bits of one pass over all rows (likewise the lowest failing
// row in rowTables).
type rowExtrema struct {
	maxHead, maxTail float64 // max |p̄_s| over s<w resp. s≥w
	min              float64 // min p̄_s
	maxSq            float64 // max ‖p̄‖²
}

// rowSums is derive's first pass. It stores every row's ‖p̄^h‖ (line 11)
// and returns the extrema the integer and reduction tables scale by. A
// row's ‖p̄^h‖² and ‖p̄‖² are each one chain of squares added from zero in
// increasing s — the bits vec.NormRange and vec.Norm give — run side by
// side over the tail. ‖p̄‖ itself is never taken: b = max ‖p̄‖ is the
// square root of the largest ‖p̄‖², because a correctly rounded square
// root is monotone.
func (idx *Index) rowSums() rowExtrema {
	bar, w := idx.bar, idx.w
	idx.barTail = make([]float64, idx.n)
	all := rowExtrema{min: math.Inf(1)}
	var mu sync.Mutex
	vec.ForRows(idx.n, func(lo, hi int) {
		// Plain comparisons, not the builtin max and min: every value is
		// finite, and which zero a tie of ±0 keeps is immaterial (only
		// |min| is used, and |·| is never −0).
		x := rowExtrema{min: math.Inf(1)}
		for i := lo; i < hi; i++ {
			row := bar.Row(i)
			var sq, tailSq float64
			for _, v := range row[:w] {
				sq += v * v
				if a := math.Abs(v); a > x.maxHead {
					x.maxHead = a
				}
				if v < x.min {
					x.min = v
				}
			}
			for _, v := range row[w:] {
				p := v * v
				sq += p
				tailSq += p
				if a := math.Abs(v); a > x.maxTail {
					x.maxTail = a
				}
				if v < x.min {
					x.min = v
				}
			}
			idx.barTail[i] = math.Sqrt(tailSq)
			if sq > x.maxSq {
				x.maxSq = sq
			}
		}
		mu.Lock()
		all.maxHead = max(all.maxHead, x.maxHead)
		all.maxTail = max(all.maxTail, x.maxTail)
		all.min = min(all.min, x.min)
		all.maxSq = max(all.maxSq, x.maxSq)
		mu.Unlock()
	})
	return all
}

// rowTables is derive's second pass: the integer floors of every row
// (line 8) and its reduction constants (line 9), both from the row while
// it is in cache, two rows at a time.
func (idx *Index) rowTables(x rowExtrema) error {
	n, d, w, bar := idx.n, idx.d, idx.w, idx.bar
	var id *intData
	if idx.opts.Int {
		var err error
		if id, err = newIntData(n, d, w, idx.opts.E); err != nil {
			return err
		}
		id.setScales(x, idx.ablation.GlobalIntScaling)
	}
	var rd *redData
	var headC2 float64
	if idx.opts.Reduction {
		rd, headC2 = newRedData(n, d, w, idx.sigma, x)
	}
	if id == nil && rd == nil {
		return nil
	}
	bad := n
	var mu sync.Mutex
	vec.ForRows(n, func(lo, hi int) {
		var f []int32
		if id != nil {
			f = make([]int32, w)
		}
		for i := lo; i < hi; i += 2 {
			// A range of odd length ends on a pair that names its last
			// row twice.
			i1 := min(i+1, hi-1)
			for r := i; id != nil && r <= i1; r++ {
				if !id.floorRow(r, w, bar.Row(r), f) {
					mu.Lock()
					bad = min(bad, r)
					mu.Unlock()
					return
				}
			}
			if rd != nil {
				rd.setRows(i, i1, bar.Row(i), bar.Row(i1), w, headC2)
			}
		}
	})
	if bad < n {
		return fmt.Errorf("core: floor of row %d outside ±(⌈E⌉+1)", bad)
	}
	idx.ints, idx.red = id, rd
	return nil
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
// e = 127), or a tail whose dot could leave vec.DotTails's int32 sums.
var ErrIntDomain = errors.New("outside the integer bound's domain")

// ErrIllConditioned is wrapped by NewIndex's error when Options.SVD is set
// and one item is so much larger than the rest (≳ 10¹³ ×) that the rank
// tolerance would drop directions other items live in: the transform
// would no longer preserve inner products, so there is no index to build.
var ErrIllConditioned = svd.ErrIllConditioned

// buildID returns the catalog ID of row i of a build over ids (nil: all).
func buildID(ids []int, i int) int {
	if ids == nil {
		return i
	}
	return ids[i]
}

// checkedNorms returns ‖p‖ for each of the n build rows (see newIndex),
// or the error of the first one that has no finite norm.
func checkedNorms(cat *catalog, ids []int, n int) ([]float64, error) {
	norms := make([]float64, n)
	var mu sync.Mutex
	bad := n
	vec.ForRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// A NaN or ±Inf coordinate makes the norm NaN or +Inf too.
			norms[i] = vec.Norm(cat.row(buildID(ids, i)))
			if math.IsNaN(norms[i]) || math.IsInf(norms[i], 0) {
				mu.Lock()
				bad = min(bad, i)
				mu.Unlock()
				return
			}
		}
	})
	if bad < n {
		return nil, checkItem(cat.row(buildID(ids, bad)), fmt.Sprintf("item matrix row %d", bad))
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

// gatherRows returns the matrix whose row i is a copy of build row
// perm[i] (see newIndex), the rows shared out by ForRows.
func gatherRows(cat *catalog, ids, perm []int) *vec.Matrix {
	out := vec.NewMatrix(len(perm), cat.d)
	vec.ForRows(len(perm), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out.Row(i), cat.row(buildID(ids, perm[i])))
		}
	})
	return out
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

// chooseW picks the checking dimension: the explicit override (at most
// d), else RhoW rounded up to a multiple of vec.HeadStep, at most d−1 —
// or RhoW itself under the rule of files written before the rounding
// (Options.rhoW, DESIGN.md §3). The rule reads neither the CPU nor the
// kernel in use, so every host builds the same index.
func (idx *Index) chooseW() int {
	d := idx.d
	if idx.opts.W > 0 {
		return min(idx.opts.W, d)
	}
	w := idx.RhoW()
	if idx.opts.rhoW || w >= d-1 {
		return w
	}
	return min((w+vec.HeadStep-1)/vec.HeadStep*vec.HeadStep, d-1)
}

// RhoW returns the checking dimension Section 3 derives for this index:
// the smallest w whose singular-value mass reaches Options.Rho, without
// SVD d/5, in [1, d−1] (1 at d = 1). W may be larger: chooseW rounds it
// up to the head kernel's step unless Options.W is set.
func (idx *Index) RhoW() int {
	d := idx.d
	if d == 1 {
		return 1
	}
	if idx.sigma == nil {
		return min(max(d/5, 1), d-1)
	}
	var total float64
	for _, s := range idx.sigma {
		total += s
	}
	if total > 0 {
		var acc float64
		for i, s := range idx.sigma {
			acc += s
			if acc >= idx.opts.Rho*total {
				return min(i+1, d-1)
			}
		}
	}
	return d - 1
}

// newIntData validates e for the integer bound at this shape, picks the
// head layout and allocates the per-row tables for floorRow.
func newIntData(n, d, w int, e float64) (*intData, error) {
	// Every floor lies in [−o, o−1]: o ≤ 128 keeps the floors inside int8,
	// the layout keeps a row's Σ|f|+w inside int16, and (d−w)·o² < 2³¹
	// keeps vec.DotTails's int32 sums exact — and so Σ|tail floors| inside
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

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// setScales takes the head and tail maxima of Equation 7 from x — or,
// under Ablation.GlobalIntScaling, one maximum over all dimensions
// (Equation 4) for both — and the factors that turn IU back into q̄ space.
func (id *intData) setScales(x rowExtrema, globalScaling bool) {
	id.maxHead, id.maxTail = x.maxHead, x.maxTail
	if globalScaling {
		m := math.Max(id.maxHead, id.maxTail)
		id.maxHead, id.maxTail = m, m
	}
	id.headScale = id.maxHead / id.e
	id.tailScale = id.maxTail / id.e
}

// floorRow stores the floors of row i, ⌊e·p̄_s/max⌋ with the head and the
// tail each scaled by its own maximum (Theorem 2) — the head into its
// block through f (w values of scratch), the tail narrowed as it goes —
// and their Σ|·| terms. It reports whether every floor lies in [−o, o−1],
// which only a loaded row whose coordinate times E overflows can break.
// A half whose maximum is 0 floors to 0. The floor is math.Floor, not a
// truncate-and-correct: the sign is a coin flip, so a correcting branch
// mispredicts every other value.
func (id *intData) floorRow(i, w int, row []float64, f []int32) bool {
	e := id.e
	if m := id.maxHead; m > 0 {
		for s, v := range row[:w] {
			f[s] = int32(math.Floor(e * v / m))
		}
	} else {
		clear(f)
	}
	_, ok := id.head.PackRow(i, f)
	tail := id.tail[i*(len(row)-w):][:len(row)-w]
	var sumAbs int64
	lo, hi := int32(0), int32(0)
	if m := id.maxTail; m > 0 { // else the fresh table's zeros are the floors
		for s, v := range row[w:] {
			x := int32(math.Floor(e * v / m))
			tail[s] = int8(x)
			sumAbs += abs64(int64(x))
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	id.sumAbsTail[i] = int32(sumAbs)
	o := int32(id.lay.Offset())
	return ok && -o <= lo && hi < o
}

// newRedData computes the Section 5.2 constants that hold for every row
// from the extrema of the working vectors, allocates the per-row ones for
// setRows, and returns Σ_{s<w} c_s² beside them. sigma may be nil (no
// SVD); the c skew then defaults to a constant shift.
func newRedData(n, d, w int, sigma []float64, x rowExtrema) (rd *redData, headC2 float64) {
	rd = &redData{
		c:          make([]float64, d),
		headConstP: make([]float64, n),
		hhTail:     make([]float64, n),
		// The rows are sorted by ORIGINAL norm, which differs from the
		// working norm under SVD, so b is the true maximum.
		b: math.Sqrt(x.maxSq),
	}
	base := math.Max(1, math.Abs(x.min))
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
	for _, c := range rd.c[:w] {
		headC2 += c * c
	}
	return rd, headC2
}

// setRows stores the per-row constants of rows i and j (j may be i) from
// their working vectors ri and rj. By ‖ṕ‖² = (b²−‖p̄‖²) + Σ(p̄_s+c_s)² =
// b² + 2Σc_s·p̄_s + Σc_s², a row takes three sums: Σ_{s<w} c_s·p̄_s, that
// sum carried on over the tail, and Σ_{s≥w}(p̄_s+c_s)². Each is one chain
// in increasing s; the two rows' chains are interleaved so that a sum
// does not wait on its own previous addition alone.
func (rd *redData) setRows(i, j int, ri, rj []float64, w int, headC2 float64) {
	c := rd.c[:len(ri)]
	rj = rj[:len(ri)]
	var hi, hj float64 // Σ_{s<w} c_s·p̄_s
	for s, cs := range c[:w] {
		hi += cs * ri[s]
		hj += cs * rj[s]
	}
	si, sj := hi, hj   // Σ_s c_s·p̄_s
	var ti, tj float64 // Σ_{s≥w} (p̄_s+c_s)²
	for s := w; s < len(c); s++ {
		cs, vi, vj := c[s], ri[s], rj[s]
		si += cs * vi
		sj += cs * vj
		ui, uj := vi+cs, vj+cs
		ti += ui * ui
		tj += uj * uj
	}
	b2 := rd.b * rd.b
	rd.headConstP[i] = -(b2 + 2*si + rd.sumC2) + 2*(hi+headC2)
	rd.headConstP[j] = -(b2 + 2*sj + rd.sumC2) + 2*(hj+headC2)
	rd.hhTail[i] = math.Sqrt(ti)
	rd.hhTail[j] = math.Sqrt(tj)
}

// W returns the checking dimension chosen during preprocessing.
func (idx *Index) W() int { return idx.w }

// Dim returns the item dimensionality d.
func (idx *Index) Dim() int { return idx.d }

// Len returns the number of indexed items.
func (idx *Index) Len() int { return idx.n }

// Options returns the (defaulted) options the index was built with.
func (idx *Index) Options() Options { return idx.opts }
