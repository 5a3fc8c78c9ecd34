// Quickstart: index a synthetic item-factor matrix and answer exact
// top-k inner-product queries with FEXIPRO, verifying against a naive
// scan and printing the pruning statistics.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fexipro"
)

func main() {
	// A synthetic workload mimicking the paper's MovieLens factors:
	// 10,000 items and 5 user queries, 50 latent dimensions.
	ds, err := fexipro.GenerateDataset("movielens", 10000, 5, 50)
	if err != nil {
		log.Fatal(err)
	}

	// Preprocess the items with the full framework (F-SIR: SVD
	// transformation + integer bound + monotonicity reduction).
	start := time.Now()
	searcher, err := fexipro.New(ds.Items, fexipro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d items (d=%d) in %v; checking dimension w=%d\n\n",
		ds.Items.Rows(), ds.Items.Cols(), time.Since(start).Round(time.Millisecond), searcher.W())

	naive := fexipro.NewNaive(ds.Items)
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		q := ds.Queries.Row(qi)

		// The query's counters go to the sink its context carries.
		var st fexipro.Stats
		start = time.Now()
		top, err := searcher.SearchContext(fexipro.WithStats(context.Background(), &st), q, 5)
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("query %d (%v): ", qi, elapsed.Round(time.Microsecond))
		for _, r := range top {
			fmt.Printf("item %d (%.3f)  ", r.ID, r.Score)
		}
		fmt.Printf("\n  scanned %d, pruned %d, full products %d (of %d items)\n",
			st.Scanned, st.TotalPruned(), st.FullProducts, ds.Items.Rows())

		// FEXIPRO is exact: the naive scan must agree.
		want := naive.Search(q, 5)
		for i := range want {
			if top[i].ID != want[i].ID {
				log.Fatalf("mismatch with naive scan at rank %d: %v vs %v", i, top[i], want[i])
			}
		}
	}
	fmt.Println("\nall results verified against the naive scan ✓")
}
