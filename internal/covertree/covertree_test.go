package covertree_test

import (
	"math/rand"
	"testing"

	"fexipro/internal/covertree"
	"fexipro/internal/engine"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// searcher is the package's one search path: the engine over a Kernel of
// per-shard trees (the registry's FastMKS is this at the default leaf
// size, and internal/method's registry-driven test covers that).
func searcher(leafSize int) searchtest.Builder {
	return func(items *vec.Matrix, shards int) searchtest.FaultSearcher {
		return engine.New(covertree.NewKernel(items, leafSize, shards), 2)
	}
}

func TestCoverTreeExact(t *testing.T) {
	searchtest.CheckSearcher(t, searcher(0).Sequential, "covertree")
	searchtest.CheckSearcherEdgeCases(t, searcher(0).Sequential, "covertree")
}

// Small leaves so even the harness's small instances produce real
// multi-level trees in every shard.
func TestShardedCoverTreeBitExact(t *testing.T) {
	searchtest.CheckSharded(t, searcher(4), "covertree")
}

func TestShardedCoverTreeCancellation(t *testing.T) {
	searchtest.CheckShardedCancellation(t, searcher(4), "covertree")
}

func TestCoverTreeExactVariousLeafSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	items, _ := searchtest.RandomInstance(rng, 400, 10)
	for _, leaf := range []int{1, 10, 50} {
		if size := covertree.New(items, leaf).Size(); size != 400 {
			t.Fatalf("leaf=%d: Size = %d, want 400", leaf, size)
		}
		tree := searcher(leaf).Sequential(items)
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 10)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			searchtest.CheckTopK(t, items, q, 5, tree.Search(q, 5), "covertree/leaf")
		}
	}
}

func TestCoverTreeDuplicates(t *testing.T) {
	row := []float64{-1, 0.5}
	items := vec.FromRows([][]float64{row, row, row, row, row, row})
	tree := searcher(2).Sequential(items)
	got := tree.Search([]float64{2, 2}, 4)
	if len(got) != 4 {
		t.Fatalf("got %d results", len(got))
	}
	for _, r := range got {
		if r.Score != -1 {
			t.Fatalf("score %v, want -1", r.Score)
		}
	}
}

func TestCoverTreePrunesInLowDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	items, q := searchtest.RandomInstance(rng, 5000, 3)
	tree := searcher(0).Sequential(items)
	tree.Search(q, 1)
	st := tree.Stats()
	if st.FullProducts >= 5000 {
		t.Errorf("no pruning at d=3: %d full products", st.FullProducts)
	}
}

func TestCoverTreeEmpty(t *testing.T) {
	empty := vec.NewMatrix(0, 4)
	if got := searcher(0).Sequential(empty).Search([]float64{1, 2, 3, 4}, 3); len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
	if size := covertree.New(empty, 0).Size(); size != 0 {
		t.Fatalf("Size = %d", size)
	}
}

func TestCoverTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	items, _ := searchtest.RandomInstance(rng, 600, 7)
	tree := covertree.New(items, 8)
	total := tree.CheckInvariants(t.Errorf)
	if total != 600 {
		t.Fatalf("leaves cover %d items, want 600", total)
	}
}
