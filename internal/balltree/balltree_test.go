package balltree_test

import (
	"math/rand"
	"testing"

	"fexipro/internal/balltree"
	"fexipro/internal/engine"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// searcher is the package's one search path: the engine over a Kernel of
// per-shard trees (the registry's BallTree is this at the default leaf
// size, and internal/method's registry-driven test covers that).
func searcher(leafSize int) searchtest.Builder {
	return func(items *vec.Matrix, shards int) search.Searcher {
		return engine.New(balltree.NewKernel(items, leafSize, shards), 2)
	}
}

func TestBallTreeExact(t *testing.T) {
	searchtest.CheckSearcher(t, searcher(0).Sequential, "balltree")
	searchtest.CheckSearcherEdgeCases(t, searcher(0).Sequential, "balltree")
}

// Small leaves so even the harness's small instances produce real
// multi-level trees in every shard.
func TestShardedBallTreeBitExact(t *testing.T) {
	searchtest.CheckSharded(t, searcher(4), "balltree")
}

func TestShardedBallTreeCancellation(t *testing.T) {
	searchtest.CheckShardedCancellation(t, searcher(4), "balltree")
}

func TestBallTreeExactVariousLeafSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	items, _ := searchtest.RandomInstance(rng, 300, 12)
	for _, leaf := range []int{1, 5, 20, 100, 1000} {
		tree := searcher(leaf).Sequential(items)
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 12)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			searchtest.CheckTopK(t, items, q, 7, tree.Search(q, 7), "balltree/leaf")
		}
	}
}

func TestBallTreePrunesInLowDimensions(t *testing.T) {
	// At low d the bound is effective: the tree must not visit everything.
	rng := rand.New(rand.NewSource(41))
	items, q := searchtest.RandomInstance(rng, 5000, 3)
	tree := searcher(0).Sequential(items)
	_, st := searchtest.Counted(tree, q, 1)
	if st.FullProducts >= 5000 {
		t.Errorf("no pruning at d=3: %d full products", st.FullProducts)
	}
	if st.PrunedByLength == 0 {
		t.Error("no subtree was ever pruned")
	}
}

func TestBallTreeAllDuplicates(t *testing.T) {
	row := []float64{1, 2, 3}
	items := vec.FromRows([][]float64{row, row, row, row, row})
	tree := searcher(2).Sequential(items)
	got := tree.Search([]float64{1, 1, 1}, 3)
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	for _, r := range got {
		if r.Score != 6 {
			t.Fatalf("score %v, want 6", r.Score)
		}
	}
}

func TestBallTreeDepthGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items, _ := searchtest.RandomInstance(rng, 1000, 8)
	tree := balltree.New(items, 20)
	if tree.Depth() < 3 {
		t.Fatalf("depth %d too shallow for 1000 items with leaf 20", tree.Depth())
	}
}

func TestBallTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	items, _ := searchtest.RandomInstance(rng, 700, 9)
	tree := balltree.New(items, 10)
	total := tree.CheckInvariants(t.Errorf)
	if total != 700 {
		t.Fatalf("leaves cover %d items, want 700", total)
	}
}
