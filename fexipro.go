// Package fexipro is a fast and exact top-k inner-product retrieval
// library for matrix-factorization recommender systems, implementing the
// FEXIPRO framework of Li, Chan, Yiu & Mamoulis (SIGMOD 2017) together
// with every baseline evaluated in the paper.
//
// Given an item factor matrix P (n items × d latent dimensions) and a
// user vector q, the library returns the k items with the largest inner
// products qᵀp — exactly, typically an order of magnitude faster than a
// full scan. FEXIPRO combines a sorted sequential scan with three
// losslessly invertible transformations:
//
//   - an SVD rotation that concentrates each query's energy in the
//     leading dimensions, making partial-product pruning effective,
//   - a scaled integer approximation whose integer-arithmetic upper
//     bound is checked before any floating-point work, and
//   - a reduction to nonnegative coordinates that makes partial inner
//     products monotone, yielding a second, tighter pruning bound.
//
// # Quick start
//
//	items := fexipro.MatrixFromRows(itemFactors) // n×d, rows are items
//	s, err := fexipro.New(items, fexipro.Options{})
//	if err != nil { ... }
//	top := s.Search(userVector, 10)
//	for _, r := range top {
//	    fmt.Println(r.ID, r.Score)
//	}
//
// Baselines (Naive, SS-L, BallTree, FastMKS, LEMP, PCATree, MiniBatch)
// are available through the same Searcher interface for benchmarking and
// verification; see the New* constructors.
package fexipro

import (
	"context"

	"fexipro/internal/core"
	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// ErrDeadline is returned by SearchContext when a query is cancelled —
// deadline expiry or explicit cancel — before the scan completed.
// Results returned alongside it are the best-so-far partial top-k:
// every score is a true inner product, but items the scan had not
// reached may be missing, so the set must be treated as inexact. Only a
// (results, nil) return is guaranteed to be the exact top-k. Match with
// errors.Is.
var ErrDeadline = search.ErrDeadline

// ErrNotFinite is wrapped by the error New and the dynamic index's Add
// return for an item vector that cannot be indexed: a NaN or infinite
// coordinate, or finite coordinates so large (≳ 1e154) that the squared
// norm — or its sum over the catalog — overflows float64. Match with
// errors.Is.
var ErrNotFinite = core.ErrNotFinite

// ErrIllConditioned is wrapped by the error New returns for a catalog in
// which one item is ≳ 10¹³ times larger than the rest: the SVD transform
// cannot keep both scales, and an index built anyway would rank wrongly.
// Match with errors.Is.
var ErrIllConditioned = core.ErrIllConditioned

// ErrRebuild is wrapped by the error of a dynamic Add or Delete that was
// valid in itself but whose index rebuild failed (stored items, each
// finite, whose squared norms sum past float64, or one of which dwarfs
// the rest as under ErrIllConditioned). The update is undone;
// nothing is wrong with the vector or ID passed in. Match with errors.Is.
var ErrRebuild = core.ErrRebuild

// Matrix is a dense row-major matrix of factor vectors: row i is the
// d-dimensional vector of item (or user) i.
type Matrix struct {
	m *vec.Matrix
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{m: vec.NewMatrix(rows, cols)}
}

// MatrixFromRows copies a slice of equal-length rows into a Matrix.
// It panics if the rows are ragged.
func MatrixFromRows(rows [][]float64) *Matrix {
	return &Matrix{m: vec.FromRows(rows)}
}

// Rows returns the number of vectors.
func (m *Matrix) Rows() int { return m.m.Rows }

// Cols returns the dimensionality d.
func (m *Matrix) Cols() int { return m.m.Cols }

// Row returns row i as a slice aliasing the matrix storage; mutating it
// mutates the matrix. Do not mutate a matrix after indexing it.
func (m *Matrix) Row(i int) []float64 { return m.m.Row(i) }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.m.At(i, j) }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.m.Set(i, j, v) }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix { return &Matrix{m: m.m.Clone()} }

// Result is one retrieved item.
type Result struct {
	// ID is the row index of the item in the indexed matrix.
	ID int
	// Score is the inner product qᵀp (exact for all methods but PCATree,
	// whose results are approximate by design).
	Score float64
}

// Stats reports the work performed by the most recent Search call of a
// Searcher, mirroring the instrumentation behind the paper's Tables 3/7.
// The five per-stage pruning counters are reported individually (one per
// bound in the cascade) alongside the collapsed Pruned total.
type Stats struct {
	// Scanned is the number of candidates examined before termination.
	Scanned int
	// PrunedByLength counts items skipped via the Cauchy–Schwarz length
	// bound, including everything cut off by early termination of the
	// sorted scan.
	PrunedByLength int
	// PrunedByIntHead and PrunedByIntFull count prunes by the partial and
	// full integer upper bounds.
	PrunedByIntHead int
	PrunedByIntFull int
	// PrunedByIncremental counts prunes by the float incremental bound
	// after the exact head dimensions.
	PrunedByIncremental int
	// PrunedByMonotone counts prunes by the monotonicity-reduction bound.
	PrunedByMonotone int
	// Pruned is the sum of the five per-stage counters: candidates
	// eliminated by any bound without computing their full inner product.
	Pruned int
	// FullProducts is the number of entire qᵀp computations.
	FullProducts int
	// NodesVisited counts tree nodes expanded (tree methods only).
	NodesVisited int
}

// TotalPruned returns the sum of the five per-stage pruning counters:
// every candidate eliminated by any bound without computing its full
// inner product. It always equals the Pruned field on Stats produced by
// this package; the method is the collapse point callers should use
// when deriving the total from individually adjusted stage counters.
func (s Stats) TotalPruned() int {
	return s.PrunedByLength + s.PrunedByIntHead + s.PrunedByIntFull +
		s.PrunedByIncremental + s.PrunedByMonotone
}

// Searcher is the common interface of every retrieval method.
type Searcher interface {
	// Search returns the top-k inner products of q against the indexed
	// items, sorted by descending score.
	Search(q []float64, k int) []Result
	// SearchContext behaves like Search but honours ctx: on deadline
	// expiry or cancellation it promptly returns the best-so-far partial
	// results together with an error satisfying
	// errors.Is(err, ErrDeadline). A nil error flags the results as
	// exact.
	SearchContext(ctx context.Context, q []float64, k int) ([]Result, error)
	// LastStats reports counters for the most recent Search call.
	LastStats() Stats
}

// wrap adapts an internal searcher to the public interface.
type wrap struct {
	s search.Searcher
}

func (w wrap) Search(q []float64, k int) []Result {
	return convertResults(w.s.Search(q, k))
}

func (w wrap) SearchContext(ctx context.Context, q []float64, k int) ([]Result, error) {
	res, err := w.s.SearchContext(ctx, q, k)
	return convertResults(res), err
}

func (w wrap) LastStats() Stats { return convertStats(w.s.Stats()) }

func convertResults(in []topk.Result) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		out[i] = Result{ID: r.ID, Score: r.Score}
	}
	return out
}

// convertLists converts a batch answer list by list. A nil batch (the
// call failed before any query ran) and a nil list (a query a cancelled
// batch never reached) stay nil.
func convertLists(raw [][]topk.Result) [][]Result {
	if raw == nil {
		return nil
	}
	out := make([][]Result, len(raw))
	for i, rs := range raw {
		if rs != nil {
			out[i] = convertResults(rs)
		}
	}
	return out
}

func convertStats(st search.Stats) Stats {
	return Stats{
		Scanned:             st.Scanned,
		PrunedByLength:      st.PrunedByLength,
		PrunedByIntHead:     st.PrunedByIntHead,
		PrunedByIntFull:     st.PrunedByIntFull,
		PrunedByIncremental: st.PrunedByIncremental,
		PrunedByMonotone:    st.PrunedByMonotone,
		Pruned:              st.TotalPruned(),
		FullProducts:        st.FullProducts,
		NodesVisited:        st.NodesVisited,
	}
}
