package fexipro_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fexipro"
)

func randomItems(rng *rand.Rand, n, d int) *fexipro.Matrix {
	m := fexipro.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		scale := math.Exp(0.5 * rng.NormFloat64())
		for j := 0; j < d; j++ {
			m.Set(i, j, scale*rng.NormFloat64())
		}
	}
	return m
}

func randomQuery(rng *rand.Rand, d int) []float64 {
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	return q
}

// naiveTopK is an independent reference implementation.
func naiveTopK(items *fexipro.Matrix, q []float64, k int) []fexipro.Result {
	type pair struct {
		id    int
		score float64
	}
	all := make([]pair, items.Rows())
	for i := range all {
		var s float64
		row := items.Row(i)
		for j, v := range row {
			s += v * q[j]
		}
		all[i] = pair{i, s}
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].score > all[i].score {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([]fexipro.Result, k)
	for i := 0; i < k; i++ {
		out[i] = fexipro.Result{ID: all[i].id, Score: all[i].score}
	}
	return out
}

func checkMatch(t *testing.T, got, want []fexipro.Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > 1e-7*(1+math.Abs(want[i].Score)) {
			t.Fatalf("%s: rank %d score %v, want %v", label, i, got[i].Score, want[i].Score)
		}
	}
}

func TestPublicSearchersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := randomItems(rng, 400, 12)
	samples := randomItems(rng, 5, 12)

	fex, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	searchers := map[string]fexipro.Searcher{
		"fexipro":  fex,
		"naive":    fexipro.NewNaive(items),
		"ss":       fexipro.NewSS(items, 0),
		"ssl":      fexipro.NewSSL(items, samples),
		"balltree": fexipro.NewBallTree(items, 0),
		"fastmks":  fexipro.NewFastMKS(items, 0),
		"lemp":     fexipro.NewLEMP(items, 0, nil),
	}
	for trial := 0; trial < 5; trial++ {
		q := randomQuery(rng, 12)
		want := naiveTopK(items, q, 7)
		for name, s := range searchers {
			checkMatch(t, s.Search(q, 7), want, name)
		}
	}
}

func TestVariantOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 200, 10)
	for _, variant := range []string{"F", "F-S", "F-I", "F-SI", "F-SR", "F-SIR"} {
		s, err := fexipro.New(items, fexipro.Options{Variant: variant})
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		q := randomQuery(rng, 10)
		checkMatch(t, s.Search(q, 5), naiveTopK(items, q, 5), variant)
	}
	if _, err := fexipro.New(items, fexipro.Options{Variant: "bogus"}); err == nil {
		t.Fatal("expected error for bad variant")
	}
	// E = 127 is the last whose floors fit the int8 tables.
	if _, err := fexipro.New(items, fexipro.Options{E: 127}); err != nil {
		t.Fatalf("E = 127: %v", err)
	}
	for _, e := range []float64{math.NaN(), math.Inf(1), 1e300, 128, 1000, 32766, 32767, 1e9} {
		if _, err := fexipro.New(items, fexipro.Options{E: e}); err == nil || !strings.Contains(err.Error(), "Options.E") {
			t.Fatalf("E = %v: err = %v, want one naming Options.E", e, err)
		}
	}
	for _, rho := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := fexipro.New(items, fexipro.Options{Rho: rho}); err == nil {
			t.Fatalf("expected error for Rho = %v", rho)
		}
	}
}

func TestStatsExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randomItems(rng, 1000, 16)
	s, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Search(randomQuery(rng, 16), 3)
	st := s.LastStats()
	if st.Scanned+st.Pruned == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.FullProducts > st.Scanned {
		t.Fatalf("inconsistent stats: %+v", st)
	}
	if s.W() < 1 || s.W() >= 16 {
		t.Fatalf("W = %d", s.W())
	}
}

// TestSearchAllocations pins the library path's per-query allocations: the
// query is transformed into the engine's reused scratch, so what a Search
// allocates is its collector and its two result lists.
func TestSearchAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const d = 16
	s, err := fexipro.New(randomItems(rng, 1000, d), fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := randomQuery(rng, d)
	if got := testing.AllocsPerRun(100, func() { s.Search(q, 10) }); got > 4 {
		t.Fatalf("one Search allocates %.0f times, want ≤ 4", got)
	}
}

func TestRetrieverConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randomItems(rng, 300, 8)
	s, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := randomQuery(rng, 8)
	want := s.Search(q, 5)
	done := make(chan bool, 4)
	for g := 0; g < 4; g++ {
		go func() {
			r := s.Retriever()
			ok := true
			for i := 0; i < 30; i++ {
				got := r.Search(q, 5)
				for j := range want {
					if got[j].ID != want[j].ID {
						ok = false
					}
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Fatal("concurrent retriever returned different results")
		}
	}
}

func TestLEMPJoinAndMiniBatchAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomItems(rng, 300, 10)
	queries := randomItems(rng, 12, 10)

	l := fexipro.NewLEMP(items, 64, nil)
	joined := l.TopKJoin(queries, 4)
	mb := fexipro.NewMiniBatch(items, 5, 2)
	batched := mb.TopKAll(queries, 4)
	for qi := 0; qi < queries.Rows(); qi++ {
		want := naiveTopK(items, queries.Row(qi), 4)
		checkMatch(t, joined[qi], want, "lemp-join")
		checkMatch(t, batched[qi], want, "minibatch")
	}
}

func TestPCATreeApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := randomItems(rng, 1000, 12)
	s := fexipro.NewPCATree(items, 32, 0.1)
	got := s.Search(randomQuery(rng, 12), 5)
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("results not sorted")
		}
	}
}

func TestEndToEndRecommender(t *testing.T) {
	ratings := fexipro.GenerateRatings(80, 60, 4, 20, 42)
	rec, err := fexipro.Train(ratings, 80, 60, fexipro.TrainConfig{Dim: 4}, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rmse := rec.RMSE(ratings); rmse > 1.0 {
		t.Fatalf("training RMSE %.3f too high", rmse)
	}
	top, err := rec.Recommend(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("got %d recommendations", len(top))
	}
	// The retrieval must agree with a brute-force scan of the factors.
	want := naiveTopK(rec.ItemFactors(), rec.UserVector(0), 5)
	checkMatch(t, top, want, "recommend")

	// Dynamic query vector path.
	qv := rec.UserVector(0)
	qv[0] += 0.5
	dyn := rec.RecommendVector(qv, 5)
	checkMatch(t, dyn, naiveTopK(rec.ItemFactors(), qv, 5), "dynamic")

	if _, err := rec.Recommend(-1, 5); err == nil {
		t.Fatal("expected error for bad user")
	}
}

func TestTrainSGDPath(t *testing.T) {
	ratings := fexipro.GenerateRatings(60, 40, 3, 15, 43)
	rec, err := fexipro.Train(ratings, 60, 40, fexipro.TrainConfig{Dim: 3, Algorithm: "sgd"}, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rmse := rec.RMSE(ratings); rmse > 1.2 {
		t.Fatalf("SGD RMSE %.3f", rmse)
	}
	if _, err := fexipro.Train(ratings, 60, 40, fexipro.TrainConfig{Algorithm: "nope"}, fexipro.Options{}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestGenerateDataset(t *testing.T) {
	for _, name := range fexipro.DatasetProfiles() {
		ds, err := fexipro.GenerateDataset(name, 100, 10, 8)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Items.Rows() != 100 || ds.Items.Cols() != 8 || ds.Queries.Rows() != 10 {
			t.Fatalf("%s: bad shapes", name)
		}
	}
	if _, err := fexipro.GenerateDataset("unknown", 0, 0, 0); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestMatrixIO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomItems(rng, 9, 3)
	path := t.TempDir() + "/m.fxp"
	if err := fexipro.SaveMatrix(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := fexipro.LoadMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatal("binary IO mismatch")
			}
		}
	}
	var buf bytes.Buffer
	if err := fexipro.WriteMatrixCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	csv, err := fexipro.ReadMatrixCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if csv.Rows() != 9 || csv.Cols() != 3 {
		t.Fatal("CSV IO mismatch")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := fexipro.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 || m.At(1, 1) != 4 {
		t.Fatal("accessor mismatch")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone aliases")
	}
}

func TestEvaluateRanking(t *testing.T) {
	ratings := fexipro.GenerateRatings(100, 80, 4, 30, 77)
	split := len(ratings) * 8 / 10
	rec, err := fexipro.Train(ratings[:split], 100, 80, fexipro.TrainConfig{Dim: 4}, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := rec.EvaluateRanking(ratings[split:], 10, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Users == 0 {
		t.Fatal("no users evaluated")
	}
	for name, v := range map[string]float64{
		"precision": m.PrecisionAtK, "recall": m.RecallAtK, "ndcg": m.NDCGAtK, "map": m.MAP,
	} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("%s = %v out of [0,1]", name, v)
		}
	}
	// The learned model should rank relevant items far better than a
	// random ordering would (expected NDCG of random ≈ k/n ≈ 0.1-ish).
	if m.NDCGAtK < 0.05 {
		t.Fatalf("NDCG@10 = %v — model appears uninformative", m.NDCGAtK)
	}
}

// TestNewRejectsOverflowingNorms: finite coordinates whose squared norm
// overflows float64 get ErrNotFinite from New and from Dynamic.Add —
// never an index that answers every query [{0 0} {1 0} …] with a nil
// error — while 1e150, whose square is still finite, ranks exactly.
func TestNewRejectsOverflowingNorms(t *testing.T) {
	ds, err := fexipro.GenerateDataset("movielens", 50, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := fexipro.NewDynamic(ds.Items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mag    float64
		builds bool
	}{{1e150, true}, {1e155, false}, {1e200, false}, {math.MaxFloat64, false}} {
		items := fexipro.NewMatrix(ds.Items.Rows(), ds.Items.Cols())
		for i := 0; i < items.Rows(); i++ {
			copy(items.Row(i), ds.Items.Row(i))
		}
		for j := range items.Row(7) {
			items.Set(7, j, c.mag)
		}
		f, err := fexipro.New(items, fexipro.Options{})
		_, addErr := dyn.Add(items.Row(7))
		if !c.builds {
			if !errors.Is(err, fexipro.ErrNotFinite) || !errors.Is(addErr, fexipro.ErrNotFinite) {
				t.Errorf("at %g: New returned %v and Add %v, want ErrNotFinite", c.mag, err, addErr)
			}
			if dyn.Len() != 50 {
				t.Fatalf("at %g: the rejected item is counted: Len %d", c.mag, dyn.Len())
			}
			continue
		}
		if err != nil || addErr != nil {
			t.Fatalf("at %g: New returned %v, Add %v", c.mag, err, addErr)
		}
		if err := dyn.Delete(50); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ds.Queries.Rows(); i++ {
			q := ds.Queries.Row(i)
			checkMatch(t, f.Search(q, 3), naiveTopK(items, q, 3), "F-SIR at 1e150")
		}
	}
}

// TestNewRefusesLossyTransform: a catalog with one coordinate of one item
// at 1e13 and beyond used to build an index that ranked wrongly (top-1 at
// 5e-13 where naive finds 3.66) with a nil error; New now returns
// ErrIllConditioned for it, and up to 1e12 still ranks like naive.
func TestNewRefusesLossyTransform(t *testing.T) {
	for _, c := range []struct {
		big    float64
		builds bool
	}{{1e6, true}, {1e9, true}, {1e12, true}, {1e13, false}, {1e16, false}, {1e20, false}} {
		rng := rand.New(rand.NewSource(1))
		items := fexipro.NewMatrix(50, 8)
		for i := 0; i < 50; i++ {
			for j := 0; j < 8; j++ {
				items.Set(i, j, rng.NormFloat64())
			}
		}
		items.Set(7, 3, c.big)
		f, err := fexipro.New(items, fexipro.Options{})
		if !c.builds {
			if !errors.Is(err, fexipro.ErrIllConditioned) {
				t.Errorf("at %g: New returned %v, want ErrIllConditioned", c.big, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("at %g: %v", c.big, err)
		}
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 8)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			q[3] = 0 // or the huge item simply wins
			checkMatch(t, f.Search(q, 3), naiveTopK(items, q, 3), "F-SIR beside a huge item")
		}
	}
}
