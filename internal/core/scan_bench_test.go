package core

import (
	"testing"

	"fexipro/internal/data"
)

// BenchmarkBlockedScan is the in-process F-SIR query under each kernel
// body the processor runs: Retriever.Search, top-10, over n = 10⁵, d = 50
// items of each dataset shape, in µs per query and ns per scanned row
// (the rows scanBlocked decides, the length break's excluded). The body
// is chosen through ForceKernel, the tests' hook, so one binary compares
// them; the counters are the same under every body.
//
//	go test ./internal/core -run '^$' -bench BlockedScan -count 6
func BenchmarkBlockedScan(b *testing.B) {
	const n, d, queries, k = 100000, 50, 200, 10
	for _, p := range []data.Profile{data.MovieLens(), data.Netflix()} {
		ds := data.Generate(p, n, queries, d)
		idx, err := NewIndex(ds.Items, Options{SVD: true, Int: true, Reduction: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, body := range KernelBodies() {
			b.Run(p.Name+"/"+body.String(), func(b *testing.B) {
				ForceKernel(b, body)
				r := NewRetriever(idx)
				scanned := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Search(ds.Queries.Row(i%queries), k)
					scanned += r.Stats().Scanned
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/query")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scanned), "ns/scanned")
			})
		}
	}
}
