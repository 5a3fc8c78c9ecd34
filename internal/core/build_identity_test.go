package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"fexipro/internal/data"
	"fexipro/internal/svd"
	"fexipro/internal/vec"
)

// refNewIndex is Algorithm 3 as it was written before preprocessing went
// parallel and register-blocked: one goroutine, one row and one product
// at a time, a clone-and-sort-in-place through sort.SliceStable. It is
// the specification of every bit NewIndex produces; nothing outside the
// tests calls it.
func refNewIndex(items *vec.Matrix, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	idx := &Index{opts: opts, n: items.Rows, d: items.Cols}

	sorted := items.Clone()
	idx.perm = make([]int, sorted.Rows)
	for i := range idx.perm {
		idx.perm[i] = i
	}
	norms := make([]float64, items.Rows)
	for i := range norms {
		norms[i] = vec.Norm(items.Row(i))
	}
	sort.SliceStable(idx.perm, func(a, b int) bool {
		return norms[idx.perm[a]] > norms[idx.perm[b]]
	})
	for newIdx, origIdx := range idx.perm {
		copy(sorted.Row(newIdx), items.Row(origIdx))
	}
	idx.norms = make([]float64, sorted.Rows)
	for i := range idx.norms {
		idx.norms[i] = vec.Norm(sorted.Row(i))
	}

	if opts.SVD {
		thin, err := refDecompose(sorted, opts.RankTol)
		if err != nil {
			return nil, err
		}
		idx.thin = thin
		idx.sigma = thin.Sigma
		idx.bar = thin.V1
	} else {
		idx.bar = sorted
	}
	idx.w = idx.chooseW()

	idx.barTail = make([]float64, idx.n)
	for i := 0; i < idx.n; i++ {
		idx.barTail[i] = vec.NormRange(idx.bar.Row(i), idx.w, idx.d)
	}
	if opts.Int {
		ints, err := refBuildIntData(idx.bar, idx.w, opts.E)
		if err != nil {
			return nil, err
		}
		idx.ints = ints
	}
	if opts.Reduction {
		idx.red = refBuildRedData(idx.bar, idx.w, idx.sigma)
	}
	return idx, nil
}

func refDecompose(items *vec.Matrix, rankTol float64) (*svd.Thin, error) {
	if rankTol <= 0 {
		rankTol = 1e-12
	}
	n, d := items.Rows, items.Cols
	g := vec.NewMatrix(d, d)
	for i := 0; i < n; i++ {
		row := items.Row(i)
		for a := 0; a < d; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			grow := g.Row(a)
			for b := a; b < d; b++ {
				grow[b] += va * row[b]
			}
		}
	}
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			g.Set(b, a, g.At(a, b))
		}
	}
	lambda, u, err := svd.SymEigen(g)
	if err != nil {
		return nil, err
	}
	sigma := make([]float64, d)
	for i, l := range lambda {
		if l < 0 {
			l = 0
		}
		sigma[i] = math.Sqrt(l)
	}
	v1 := vec.NewMatrix(n, d)
	inv := make([]float64, d)
	for j := 0; j < d; j++ {
		if sigma[0] > 0 && sigma[j] > rankTol*sigma[0] {
			inv[j] = 1 / sigma[j]
		} else {
			sigma[j] = 0
		}
	}
	for i := 0; i < n; i++ {
		src := items.Row(i)
		dst := v1.Row(i)
		for kk := 0; kk < d; kk++ {
			v := src[kk]
			if v == 0 {
				continue
			}
			urow := u.Row(kk)
			for j := 0; j < d; j++ {
				dst[j] += v * urow[j]
			}
		}
		for j := 0; j < d; j++ {
			dst[j] *= inv[j]
		}
	}
	return &svd.Thin{U: u, Sigma: sigma, V1: v1}, nil
}

func refBuildIntData(bar *vec.Matrix, w int, e float64) (*intData, error) {
	n, d := bar.Rows, bar.Cols
	id, err := newIntData(n, d, w, e)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		row := bar.Row(i)
		if h := vec.AbsMaxRange(row, 0, w); h > id.maxHead {
			id.maxHead = h
		}
		if t := vec.AbsMaxRange(row, w, d); t > id.maxTail {
			id.maxTail = t
		}
	}
	id.headScale = id.maxHead / e
	id.tailScale = id.maxTail / e
	f := make([]int32, d)
	for i := 0; i < n; i++ {
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
			return nil, fmt.Errorf("core: floor of row %d outside ±(⌈E⌉+1)", i)
		}
	}
	return id, nil
}

func refBuildRedData(bar *vec.Matrix, w int, sigma []float64) *redData {
	n, d := bar.Rows, bar.Cols
	rd := &redData{
		c:          make([]float64, d),
		headConstP: make([]float64, n),
		hhTail:     make([]float64, n),
	}
	pmin := vec.Min(bar.Data)
	base := math.Max(1, math.Abs(pmin))
	sigmaLast := 0.0
	for i := len(sigma) - 1; i >= 0; i-- {
		if sigma[i] > 0 {
			sigmaLast = sigma[i]
			break
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
	for i := 0; i < n; i++ {
		if nb := vec.Norm(bar.Row(i)); nb > rd.b {
			rd.b = nb
		}
	}
	for i := 0; i < n; i++ {
		var sumCP, headCP, headC2, tailSq float64
		for s, v := range bar.Row(i) {
			sumCP += rd.c[s] * v
			if s < w {
				headCP += rd.c[s] * v
				headC2 += rd.c[s] * rd.c[s]
			} else {
				t := v + rd.c[s]
				tailSq += t * t
			}
		}
		pAcuteSq := rd.b*rd.b + 2*sumCP + rd.sumC2
		rd.headConstP[i] = -pAcuteSq + 2*(headCP+headC2)
		rd.hhTail[i] = math.Sqrt(tailSq)
	}
	return rd
}

// identityCatalog draws the n×d catalog of one test case. Beyond the two
// dataset shapes: "ties" repeats rows and norms (the stable order
// decides), "rankdef" spans only ⌈d/2⌉ directions and keeps a few zero
// coordinates and zero rows (the v == 0 skips the blocked kernels
// dropped).
func identityCatalog(shape string, n, d int) *vec.Matrix {
	switch shape {
	case "movielens":
		return data.Generate(data.MovieLens(), n, 1, d).Items
	case "netflix":
		return data.Generate(data.Netflix(), n, 1, d).Items
	}
	rng := rand.New(rand.NewSource(31))
	m := vec.NewMatrix(n, d)
	switch shape {
	case "ties":
		for i := 0; i < n; i++ {
			row := m.Row(i)
			if i >= 3 && rng.Intn(3) == 0 {
				copy(row, m.Row(rng.Intn(i))) // duplicate row
				continue
			}
			for s := range row {
				row[s] = float64(rng.Intn(5) - 2) // few distinct norms
			}
		}
	case "rankdef":
		r := (d + 1) / 2
		basis := vec.NewMatrix(r, d)
		for i := range basis.Data {
			basis.Data[i] = float64(rng.Intn(7) - 3)
		}
		for i := 0; i < n; i++ {
			if i%11 == 5 {
				continue // zero row
			}
			for k := 0; k < r; k++ {
				vec.AxpyInto(m.Row(i), m.Row(i), basis.Row(k), float64(rng.Intn(9)-4)/4)
			}
		}
	default:
		panic(shape)
	}
	return m
}

// TestNewIndexMatchesSequentialReference pins the parallel, blocked
// build to the sequential one byte for byte: Index.Save of NewIndex
// equals Index.Save of refNewIndex for every pruning variant, on both
// dataset shapes plus tied norms and a rank-deficient
// P, across the row counts that exercise the 4-row and 2-row tails and
// both sides of the parallel threshold, at every GOMAXPROCS.
func TestNewIndexMatchesSequentialReference(t *testing.T) {
	sir := Options{SVD: true, Int: true, Reduction: true}
	// Ordered so that every third variant is one that builds something
	// the others do not (the subset the larger sizes run).
	variants := []struct {
		name string
		opts Options
	}{
		{"F-SIR", sir},
		{"F-I", Options{Int: true}},
		{"F-R", Options{Reduction: true}},
		{"F-S", Options{SVD: true}},
		{"F-SI", Options{SVD: true, Int: true}},
		{"F-SR", Options{SVD: true, Reduction: true}},
		{"F-SIR/W=3", Options{SVD: true, Int: true, Reduction: true, W: 3}},
		{"F-IR", Options{Int: true, Reduction: true}},
		{"F", Options{}},
	}
	// Every variant wherever it is cheap — d ∈ {1, 7} below the parallel
	// threshold — and at n = 4099, d = 50 on the MovieLens shape, where
	// every loop of every variant runs on several goroutines. A d = 50
	// build pays a 50×50 Jacobi (and ten times that under -race), so the
	// other catalogs take every third, sixth or twelfth variant.
	type size struct {
		n      int
		shapes []string
		dims   []int
		every  int
	}
	all := []string{"movielens", "netflix", "ties", "rankdef"}
	sizes := []size{
		{1, all, []int{1, 7}, 1},
		{1, all[:1], []int{50}, 12},
		{2, all, []int{1, 7}, 1},
		{3, all, []int{1, 7}, 1},
		{3, all[:1], []int{50}, 12},
		{5, all, []int{1, 7}, 1},
		{1023, all, []int{1, 7}, 1},
		{1023, all[:1], []int{50}, 6},
		{4099, all[:1], []int{50}, 1},
		{4099, all, []int{1, 7}, 3},
		{4099, all[1:], []int{50}, 12},
		{20000, all[:1], []int{50}, 12},
	}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sz := range sizes {
		for _, shape := range sz.shapes {
			for _, d := range sz.dims {
				// One catalog: its references first, then every variant at
				// each GOMAXPROCS (changing it stops the world, so that is
				// the outer loop).
				items := identityCatalog(shape, sz.n, d)
				refs := make([]*Index, len(variants))
				for vi := 0; vi < len(variants); vi += sz.every {
					ref, err := refNewIndex(items, variants[vi].opts)
					if err != nil {
						t.Fatalf("%s/n=%d/d=%d/%s: reference: %v", shape, sz.n, d, variants[vi].name, err)
					}
					refs[vi] = ref
				}
				for _, procs := range []int{1, 2, 3, 8} {
					runtime.GOMAXPROCS(procs)
					for vi := 0; vi < len(variants); vi += sz.every {
						name := fmt.Sprintf("%s/n=%d/d=%d/%s at GOMAXPROCS %d", shape, sz.n, d, variants[vi].name, procs)
						idx, err := NewIndex(items, variants[vi].opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if field := firstFieldThatDiffers(idx, refs[vi]); field != "" {
							t.Errorf("%s: %s differs from the sequential reference", name, field)
						}
						// Save is a function of the fields just compared and
						// costs several builds; one build per catalog pins it.
						if vi != 0 || procs != 8 {
							continue
						}
						var got, want bytes.Buffer
						if err := idx.Save(&got); err != nil {
							t.Fatal(err)
						}
						if err := refs[vi].Save(&want); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got.Bytes(), want.Bytes()) {
							t.Errorf("%s: Save bytes differ from the sequential reference", name)
						}
					}
				}
			}
		}
	}
}

// firstFieldThatDiffers names the first Index field whose bits differ
// between a and b ("" when none does): floats compare by bit pattern, so
// a −0 for a +0 or one NaN payload for another is a difference.
func firstFieldThatDiffers(a, b *Index) string {
	floats := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	switch {
	case a.opts != b.opts || a.n != b.n || a.d != b.d || a.w != b.w:
		return "opts/n/d/w"
	case !slices.Equal(a.perm, b.perm):
		return "perm"
	case !floats(a.norms, b.norms):
		return "norms"
	case !floats(a.bar.Data, b.bar.Data):
		return "bar"
	case !floats(a.barTail, b.barTail):
		return "barTail"
	case !floats(a.sigma, b.sigma):
		return "sigma"
	case (a.thin == nil) != (b.thin == nil), (a.ints == nil) != (b.ints == nil), (a.red == nil) != (b.red == nil):
		return "thin/ints/red presence"
	}
	if a.thin != nil && !floats(a.thin.U.Data, b.thin.U.Data) {
		return "thin.U"
	}
	if x, y := a.ints, b.ints; x != nil {
		switch {
		case !floats([]float64{x.e, x.maxHead, x.maxTail, x.headScale, x.tailScale},
			[]float64{y.e, y.maxHead, y.maxTail, y.headScale, y.tailScale}):
			return "ints scales"
		case x.lay != y.lay:
			return "ints layout"
		case !reflect.DeepEqual(x.head, y.head):
			return "ints head"
		case !slices.Equal(x.tail, y.tail) || !slices.Equal(x.sumAbsTail, y.sumAbsTail):
			return "ints tail"
		}
	}
	if x, y := a.red, b.red; x != nil {
		switch {
		case !floats(x.c, y.c) || !floats([]float64{x.b, x.sumC2}, []float64{y.b, y.sumC2}):
			return "red constants"
		case !floats(x.headConstP, y.headConstP) || !floats(x.hhTail, y.hhTail):
			return "red per-row"
		}
	}
	return ""
}
