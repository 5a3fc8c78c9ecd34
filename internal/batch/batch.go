// Package batch implements the MiniBatch baseline of Table 5: top-k
// retrieval for a query workload via dense matrix multiplication with a
// cache-blocked GEMM kernel (standing in for the paper's Intel MKL
// dgemm), in single- and multi-goroutine flavors.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"fexipro/internal/search"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Options configures MiniBatch processing.
type Options struct {
	// BatchSize is the number of queries multiplied per block (the
	// paper sweeps 1, 100, 10000). Default 100.
	BatchSize int
	// Workers is the number of goroutines (default: GOMAXPROCS).
	Workers int
	// BlockK and BlockN are the GEMM cache-blocking tile sizes along the
	// shared dimension and the item dimension (defaults 64 and 256).
	BlockK, BlockN int
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 100
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BlockK <= 0 {
		o.BlockK = 64
	}
	if o.BlockN <= 0 {
		o.BlockN = 256
	}
	return o
}

// MiniBatch holds the item matrix for batched retrieval.
type MiniBatch struct {
	items *vec.Matrix
	opts  Options
}

// New creates a MiniBatch engine over items (rows are item vectors;
// referenced, not copied).
func New(items *vec.Matrix, opts Options) *MiniBatch {
	return &MiniBatch{items: items, opts: opts.withDefaults()}
}

// TopKAll computes the top-k lists for every query row by multiplying
// query batches against the item matrix and selecting per row.
func (m *MiniBatch) TopKAll(queries *vec.Matrix, k int) [][]topk.Result {
	out, _ := m.TopKAllContext(context.Background(), queries, k)
	return out
}

// TopKAllContext behaves like TopKAll but honours ctx between batches:
// a cancelled context returns the batches completed so far (unprocessed
// query rows are nil) with an ErrDeadline-wrapping error. Every slot
// that is filled holds the exact top-k for its query; cancellation
// granularity is one batch (BatchSize GEMM rows), the unit of work the
// blocked multiply cannot cheaply interrupt.
func (m *MiniBatch) TopKAllContext(ctx context.Context, queries *vec.Matrix, k int) ([][]topk.Result, error) {
	if queries.Cols != m.items.Cols {
		panic(fmt.Sprintf("batch: query dim %d != item dim %d", queries.Cols, m.items.Cols))
	}
	out := make([][]topk.Result, queries.Rows)
	for start := 0; start < queries.Rows; start += m.opts.BatchSize {
		if start > 0 {
			if err := search.Poll(ctx); err != nil {
				return out, err
			}
		}
		end := start + m.opts.BatchSize
		if end > queries.Rows {
			end = queries.Rows
		}
		m.processBatch(queries, start, end, k, out)
	}
	return out, nil
}

// processBatch multiplies queries[start:end] with the item matrix and
// fills the matching result slots.
func (m *MiniBatch) processBatch(queries *vec.Matrix, start, end, k int, out [][]topk.Result) {
	rows := end - start
	scores := vec.NewMatrix(rows, m.items.Rows)
	m.gemm(queries, start, end, scores)

	selectRows := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			c := topk.New(k)
			row := scores.Row(r)
			for i, s := range row {
				c.Push(i, s)
			}
			out[start+r] = c.Results()
		}
	}
	if m.opts.Workers <= 1 || rows == 1 {
		selectRows(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + m.opts.Workers - 1) / m.opts.Workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			selectRows(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// gemm computes scores = Q_batch · Pᵀ with cache blocking over the shared
// dimension (d) and the item dimension (n), parallelized over item tiles.
func (m *MiniBatch) gemm(queries *vec.Matrix, start, end int, scores *vec.Matrix) {
	d := m.items.Cols
	n := m.items.Rows
	rows := end - start

	type tile struct{ nLo, nHi int }
	tiles := []tile{}
	for nLo := 0; nLo < n; nLo += m.opts.BlockN {
		nHi := nLo + m.opts.BlockN
		if nHi > n {
			nHi = n
		}
		tiles = append(tiles, tile{nLo, nHi})
	}

	work := func(tl tile) {
		for kLo := 0; kLo < d; kLo += m.opts.BlockK {
			kHi := kLo + m.opts.BlockK
			if kHi > d {
				kHi = d
			}
			for r := 0; r < rows; r++ {
				qrow := queries.Row(start + r)
				srow := scores.Row(r)
				for i := tl.nLo; i < tl.nHi; i++ {
					srow[i] += vec.DotRange(qrow, m.items.Row(i), kLo, kHi)
				}
			}
		}
	}

	if m.opts.Workers <= 1 || len(tiles) == 1 {
		for _, tl := range tiles {
			work(tl)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan tile, len(tiles))
	for _, tl := range tiles {
		ch <- tl
	}
	close(ch)
	for wkr := 0; wkr < m.opts.Workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tl := range ch {
				work(tl)
			}
		}()
	}
	wg.Wait()
}
