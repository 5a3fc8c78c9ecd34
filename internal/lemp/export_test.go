package lemp

import "fexipro/internal/vec"

// NewSSLBuckets is NewSSL with buckets of size rows, so that small test
// catalogs span many buckets and every shard count gets real work.
func NewSSLBuckets(items, samples *vec.Matrix, size int) *Index {
	return newSSL(items, samples, size)
}

// Ws returns every bucket's checking dimension.
func (idx *Index) Ws() []int {
	ws := make([]int, len(idx.buckets))
	for i, b := range idx.buckets {
		ws[i] = b.w
	}
	return ws
}
