package pcatree_test

import (
	"math/rand"
	"testing"

	"fexipro/internal/engine"
	"fexipro/internal/pcatree"
	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// searcher is the package's one search path: the engine over a Kernel of
// ID ranges of one tree (the registry's PCATree is this, and
// internal/method's registry-driven test covers its default options).
// Every shard count of one builder shares the tree it built over items.
func searcher(opts pcatree.Options) searchtest.Builder {
	trees := map[*vec.Matrix]*pcatree.Tree{}
	return func(items *vec.Matrix, shards int) search.Searcher {
		if trees[items] == nil {
			trees[items] = pcatree.New(items, opts)
		}
		return engine.New(pcatree.NewKernel(trees[items], shards), 2)
	}
}

// PCATree is approximate, but its defeatist descent is
// threshold-independent, so the engine must return bit-identical
// (approximate) results for every shard count — the full CheckSharded
// harness applies because the S=1 engine is the reference. Small leaves
// so the harness's small instances produce multi-level trees whose leaf
// candidate sets straddle shard boundaries.
func TestShardedPCATreeBitExact(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts pcatree.Options
	}{
		{"defeatist", pcatree.Options{LeafSize: 8}},
		{"spill", pcatree.Options{LeafSize: 8, SpillFraction: 0.3}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			searchtest.CheckSharded(t, searcher(cfg.opts), "pcatree-"+cfg.name)
		})
	}
}

func TestShardedPCATreeCancellation(t *testing.T) {
	searchtest.CheckShardedCancellationApprox(t, searcher(pcatree.Options{LeafSize: 8}), "pcatree")
}

// TestPCATreeCancellation is the cancellation suite at one shard, which
// the registry leaves to this package: there a defeatist descent visits
// fewer nodes than a poll stride, so only a spilling one runs long enough
// for a fault to land in it after candidates were offered.
func TestPCATreeCancellation(t *testing.T) {
	searchtest.CheckCancellationApprox(t, searcher(pcatree.Options{LeafSize: 8, SpillFraction: 0.3}).Sequential, "pcatree/spill")
}

func randomQueries(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// PCATree is approximate, but its answers must still be VALID: scores
// must be true inner products of real items, sorted descending.
func TestPCATreeReturnsValidScores(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	items, _ := searchtest.RandomInstance(rng, 500, 12)
	tree := searcher(pcatree.Options{LeafSize: 32}).Sequential(items)
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 12)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		got := tree.Search(q, 5)
		if len(got) == 0 {
			t.Fatal("no results")
		}
		for i, r := range got {
			actual := vec.Dot(q, items.Row(r.ID))
			if diff := actual - r.Score; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("score %v != true product %v", r.Score, actual)
			}
			if i > 0 && got[i-1].Score < r.Score {
				t.Fatal("results not sorted")
			}
		}
	}
}

// Defeatist descent visits a small fraction of the items.
func TestPCATreeIsSelective(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	items, q := searchtest.RandomInstance(rng, 4000, 16)
	tree := searcher(pcatree.Options{LeafSize: 64}).Sequential(items)
	if _, st := searchtest.Counted(tree, q, 5); st.Scanned > 500 {
		t.Fatalf("defeatist search scanned %d of 4000 items", st.Scanned)
	}
}

// Recall must improve (RMSE@k must not grow) as spill widens the search.
func TestPCATreeSpillImprovesQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	items, _ := searchtest.RandomInstance(rng, 2000, 10)
	queries := randomQueries(rng, 30, 10)
	exact := scan.NewNaive(items)

	narrow := searcher(pcatree.Options{LeafSize: 32}).Sequential(items)
	wide := searcher(pcatree.Options{LeafSize: 32, SpillFraction: 0.15}).Sequential(items)
	rmseNarrow := pcatree.RMSEAtK(narrow, exact, queries, 5)
	rmseWide := pcatree.RMSEAtK(wide, exact, queries, 5)
	if rmseWide > rmseNarrow+1e-12 {
		t.Fatalf("spill worsened RMSE@5: %v -> %v", rmseNarrow, rmseWide)
	}
	if rmseNarrow == 0 {
		t.Log("note: defeatist search happened to be exact on this instance")
	}
}

// With the whole dataset in one leaf the tree degenerates to Naive and
// must be exact.
func TestPCATreeHugeLeafIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	items, _ := searchtest.RandomInstance(rng, 200, 8)
	tree := searcher(pcatree.Options{LeafSize: 10000}).Sequential(items)
	for trial := 0; trial < 5; trial++ {
		q := make([]float64, 8)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		searchtest.CheckTopK(t, items, q, 6, tree.Search(q, 6), "pcatree/one-leaf")
	}
}

func TestPCATreeRMSEMeasuresApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	items, _ := searchtest.RandomInstance(rng, 3000, 20)
	queries := randomQueries(rng, 50, 20)
	tree := searcher(pcatree.Options{LeafSize: 32}).Sequential(items)
	exact := scan.NewNaive(items)
	rmse := pcatree.RMSEAtK(tree, exact, queries, 10)
	if rmse < 0 {
		t.Fatalf("negative RMSE %v", rmse)
	}
	// A 32-item leaf over 3000 items cannot be exact for 50 random
	// queries at k=10 with overwhelming probability.
	if rmse == 0 {
		t.Error("RMSE@10 is exactly zero — approximation path likely not exercised")
	}
}

func TestPCATreeEmptyAndZeroK(t *testing.T) {
	empty := searcher(pcatree.Options{}).Sequential(vec.NewMatrix(0, 4))
	if got := empty.Search([]float64{1, 2, 3, 4}, 3); len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
	rng := rand.New(rand.NewSource(65))
	items, q := searchtest.RandomInstance(rng, 50, 4)
	tree := searcher(pcatree.Options{}).Sequential(items)
	if got := tree.Search(q, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}
