// Package aip solves the top-k All-pairs Inner Product problem (Ballard,
// Kolda, Pinar & Seshadhri, ICDM 2015): find the k largest entries of
// QᵀP across ALL (user, item) pairs. The paper lists extending FEXIPRO
// to AIP as future work (Section 9); this package provides
//
//   - Exact: an exact solver that drives a FEXIPRO index with a GLOBAL
//     threshold — queries are processed in decreasing norm order, the
//     current global k-th product prunes whole queries via the
//     Cauchy–Schwarz test, and each surviving query reuses the whole
//     single-query pruning cascade; and
//
//   - Sample: a wedge/diamond-style sampling estimator in the spirit of
//     [8]: dimensions are sampled with probability proportional to their
//     |Q|-row × |P|-row mass, producing candidate pairs whose exact
//     products are then verified, so the returned scores are true inner
//     products even when the candidate set is approximate.
package aip

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fexipro/internal/core"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Pair is one (user, item) result with its exact inner product.
type Pair struct {
	User, Item int
	Score      float64
}

// Exact returns the k largest inner products over all pairs of rows of
// users × items, exactly.
func Exact(users, items *vec.Matrix, k int, opts core.Options) ([]Pair, error) {
	if users.Cols != items.Cols {
		return nil, fmt.Errorf("aip: dim mismatch %d vs %d", users.Cols, items.Cols)
	}
	if k <= 0 {
		return nil, nil
	}
	idx, err := core.NewIndex(items, opts)
	if err != nil {
		return nil, err
	}
	r := core.NewRetriever(idx)

	// Process queries in decreasing norm order so the global threshold
	// rises quickly and the Cauchy–Schwarz test can drop whole queries.
	order, qNorms := search.ByNormDesc(users)

	maxItemNorm := 0.0
	for _, n := range items.RowNorms() {
		if n > maxItemNorm {
			maxItemNorm = n
		}
	}

	global := newPairHeap(k)
	for _, u := range order {
		t := global.threshold()
		if qNorms[u]*maxItemNorm <= t {
			break // no remaining query can contribute
		}
		// Above-t retrieval against the current global threshold keeps
		// only candidates that could enter the global top-k.
		for _, res := range r.SearchAbove(users.Row(u), nextAfter(t)) {
			global.push(Pair{User: u, Item: res.ID, Score: res.Score})
		}
	}
	return global.sorted(), nil
}

// nextAfter nudges the exclusive threshold t into an inclusive one for
// SearchAbove without re-admitting t itself.
func nextAfter(t float64) float64 {
	if math.IsInf(t, -1) {
		return t
	}
	return math.Nextafter(t, math.Inf(1))
}

// SampleConfig tunes the sampling estimator.
type SampleConfig struct {
	// Samples is the number of wedge samples (default 100k).
	Samples int
	// Candidates is how many distinct pairs (by sample count) are
	// verified exactly (default 10·k).
	Candidates int
	Seed       int64
}

// Sample approximates the top-k all-pairs products: it samples candidate
// pairs with probability proportional to Σ_s |q_s·p_s| mass, then
// verifies the most-sampled candidates exactly. Returned scores are
// exact; the candidate SET may miss true top-k pairs (it is an
// approximation, like diamond sampling in [8]).
func Sample(users, items *vec.Matrix, k int, cfg SampleConfig) ([]Pair, error) {
	if users.Cols != items.Cols {
		return nil, fmt.Errorf("aip: dim mismatch %d vs %d", users.Cols, items.Cols)
	}
	if k <= 0 {
		return nil, nil
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 100000
	}
	if cfg.Candidates <= 0 {
		cfg.Candidates = 10 * k
	}
	d := users.Cols
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-dimension absolute mass and per-dimension alias-free CDFs over
	// rows: P(dim s) ∝ (Σ_u |Q[u][s]|)·(Σ_i |P[i][s]|);
	// P(u | s) ∝ |Q[u][s]|, P(i | s) ∝ |P[i][s]|.
	userCDF := columnCDFs(users)
	itemCDF := columnCDFs(items)
	dimWeights := make([]float64, d)
	var totalW float64
	for s := 0; s < d; s++ {
		dimWeights[s] = userCDF.total[s] * itemCDF.total[s]
		totalW += dimWeights[s]
	}
	if totalW == 0 {
		return nil, nil // all-zero matrices: every product is 0
	}
	dimCum := make([]float64, d)
	acc := 0.0
	for s := 0; s < d; s++ {
		acc += dimWeights[s]
		dimCum[s] = acc
	}

	counts := make(map[[2]int]int, cfg.Samples/4)
	for n := 0; n < cfg.Samples; n++ {
		s := searchCum(dimCum, rng.Float64()*totalW)
		u := userCDF.sample(s, rng)
		i := itemCDF.sample(s, rng)
		// Wedge weight sign: count only same-sign contributions to bias
		// candidates toward large POSITIVE products.
		if users.At(u, s)*items.At(i, s) > 0 {
			counts[[2]int{u, i}]++
		}
	}

	type scored struct {
		pair  [2]int
		count int
	}
	cands := make([]scored, 0, len(counts))
	for p, c := range counts {
		cands = append(cands, scored{p, c})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].count != cands[b].count {
			return cands[a].count > cands[b].count
		}
		return cands[a].pair[0] < cands[b].pair[0] ||
			(cands[a].pair[0] == cands[b].pair[0] && cands[a].pair[1] < cands[b].pair[1])
	})
	if len(cands) > cfg.Candidates {
		cands = cands[:cfg.Candidates]
	}

	h := newPairHeap(k)
	for _, c := range cands {
		u, i := c.pair[0], c.pair[1]
		h.push(Pair{User: u, Item: i, Score: vec.Dot(users.Row(u), items.Row(i))})
	}
	return h.sorted(), nil
}

// columnCDF holds per-dimension cumulative |value| sums over rows for
// O(log n) conditional sampling.
type columnCDF struct {
	rows  int
	cum   []float64 // d × rows, cum[s*rows+r] = Σ_{r'≤r} |M[r'][s]|
	total []float64 // per-dimension totals
}

func columnCDFs(m *vec.Matrix) *columnCDF {
	c := &columnCDF{
		rows:  m.Rows,
		cum:   make([]float64, m.Cols*m.Rows),
		total: make([]float64, m.Cols),
	}
	for s := 0; s < m.Cols; s++ {
		acc := 0.0
		base := s * m.Rows
		for r := 0; r < m.Rows; r++ {
			acc += math.Abs(m.At(r, s))
			c.cum[base+r] = acc
		}
		c.total[s] = acc
	}
	return c
}

func (c *columnCDF) sample(s int, rng *rand.Rand) int {
	base := s * c.rows
	return searchCum(c.cum[base:base+c.rows], rng.Float64()*c.total[s])
}

// searchCum returns the first index whose cumulative value exceeds x.
func searchCum(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// pairHeap is a bounded min-heap over Pair scores.
type pairHeap struct {
	k     int
	inner *topk.Collector
	byID  map[int]Pair // collector IDs → pairs
	next  int
}

func newPairHeap(k int) *pairHeap {
	return &pairHeap{k: k, inner: topk.New(k), byID: make(map[int]Pair, k+1)}
}

func (h *pairHeap) threshold() float64 { return h.inner.Threshold() }

func (h *pairHeap) push(p Pair) {
	id := h.next
	h.next++
	if h.inner.Push(id, p.Score) {
		h.byID[id] = p
		if len(h.byID) > 4*h.k {
			h.compact()
		}
	}
}

// compact drops evicted pairs from the side map.
func (h *pairHeap) compact() {
	live := make(map[int]Pair, h.k)
	for _, r := range h.inner.Results() {
		live[r.ID] = h.byID[r.ID]
	}
	h.byID = live
}

func (h *pairHeap) sorted() []Pair {
	res := h.inner.Results()
	out := make([]Pair, len(res))
	for i, r := range res {
		out[i] = h.byID[r.ID]
	}
	return out
}
