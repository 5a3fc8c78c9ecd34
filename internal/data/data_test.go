package data

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fexipro/internal/vec"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("got %d profiles", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.Items <= 0 || p.Users <= 0 || p.Dim <= 0 || p.BenchItems <= 0 {
			t.Fatalf("profile %q has invalid counts: %+v", p.Name, p)
		}
	}
	for _, want := range []string{"movielens", "yelp", "netflix", "yahoo"} {
		if !names[want] {
			t.Fatalf("missing profile %q", want)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("netflix")
	if err != nil || p.Name != "netflix" {
		t.Fatalf("ProfileByName: %v, %v", p, err)
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestGenerateShapesAndDeterminism(t *testing.T) {
	p := MovieLens()
	ds1 := Generate(p, 500, 20, 16)
	ds2 := Generate(p, 500, 20, 16)
	if ds1.Items.Rows != 500 || ds1.Items.Cols != 16 || ds1.Queries.Rows != 20 {
		t.Fatalf("shapes: items %d×%d queries %d", ds1.Items.Rows, ds1.Items.Cols, ds1.Queries.Rows)
	}
	if !ds1.Items.Equal(ds2.Items, 0) || !ds1.Queries.Equal(ds2.Queries, 0) {
		t.Fatal("generation is not deterministic for a fixed profile seed")
	}
	// Defaults kick in for zero arguments.
	ds3 := Generate(Netflix(), 0, 0, 0)
	if ds3.Items.Rows != Netflix().BenchItems || ds3.Items.Cols != 50 {
		t.Fatalf("default generation produced %d×%d", ds3.Items.Rows, ds3.Items.Cols)
	}
}

// Calibration to Figure 3/14: factor values concentrate in [-1, 1].
func TestValueRangeMatchesPaper(t *testing.T) {
	for _, p := range Profiles() {
		ds := Generate(p, 2000, 100, 0)
		inRange := 0
		for _, v := range ds.Items.Data {
			if v >= -1 && v <= 1 {
				inRange++
			}
		}
		frac := float64(inRange) / float64(len(ds.Items.Data))
		if frac < 0.85 {
			t.Errorf("%s: only %.1f%% of item values in [-1,1]", p.Name, 100*frac)
		}
	}
}

// Calibration to Figures 8/9: Netflix must have far less item-norm skew
// than the other profiles.
func TestNetflixNormHomogeneity(t *testing.T) {
	cv := func(p Profile) float64 {
		ds := Generate(p, 3000, 10, 0)
		norms := ds.Items.RowNorms()
		var mean, varSum float64
		for _, n := range norms {
			mean += n
		}
		mean /= float64(len(norms))
		for _, n := range norms {
			varSum += (n - mean) * (n - mean)
		}
		return math.Sqrt(varSum/float64(len(norms))) / mean
	}
	netflix := cv(Netflix())
	for _, p := range []Profile{MovieLens(), Yelp(), Yahoo()} {
		if other := cv(p); other < 1.5*netflix {
			t.Errorf("%s norm CV %.3f not clearly above netflix %.3f", p.Name, other, netflix)
		}
	}
}

// Calibration to Figures 15-17: the prunable profiles must have a
// decaying singular spectrum; netflix a flat one. We check via the
// energy captured by the top quarter of the item covariance eigenvalues,
// approximated by the variance of projections onto the generation axes
// (rotation-invariant check via Gram trace ratios is overkill here; we
// directly measure spectrum decay from squared singular values of the
// matrix using its Gram diagonal after projection-free power iteration).
func TestSpectralDecayOrdering(t *testing.T) {
	topShare := func(p Profile) float64 {
		ds := Generate(p, 2000, 10, 0)
		g := ds.Items.GramLower()
		// Eigenvalue mass via trace and the largest Gershgorin-like
		// estimate: use power iteration for λ₁.
		d := g.Rows
		v := make([]float64, d)
		rng := rand.New(rand.NewSource(1))
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		var lambda float64
		for iter := 0; iter < 200; iter++ {
			nv := make([]float64, g.Rows)
			for r := range nv {
				nv[r] = vec.Dot(g.Row(r), v)
			}
			lambda = vec.Norm(nv)
			if lambda == 0 {
				break
			}
			vec.Scale(nv, 1/lambda)
			v = nv
		}
		var trace float64
		for i := 0; i < d; i++ {
			trace += g.At(i, i)
		}
		return lambda / trace
	}
	nf := topShare(Netflix())
	ml := topShare(MovieLens())
	if ml < 1.3*nf {
		t.Errorf("movielens top-eigenvalue share %.3f not clearly above netflix %.3f", ml, nf)
	}
}

func TestRandomOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{1, 2, 5, 20} {
		m := RandomOrthogonal(d, rng)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				dot := vec.Dot(m.Row(i), m.Row(j))
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-10 {
					t.Fatalf("d=%d: rows %d,%d dot %v, want %v", d, i, j, dot, want)
				}
			}
		}
	}
}

func TestPlantedRatings(t *testing.T) {
	cfg := RatingConfig{Users: 50, Items: 40, Dim: 4, PerUser: 10, Noise: 0.1, Scale: 5, Seed: 3}
	ratings, users, items := PlantedRatings(cfg)
	if users.Rows != 50 || items.Rows != 40 {
		t.Fatalf("factor shapes %d, %d", users.Rows, items.Rows)
	}
	if len(ratings) == 0 {
		t.Fatal("no ratings generated")
	}
	for _, r := range ratings {
		if r.Value < 1 || r.Value > 5 {
			t.Fatalf("rating %v out of [1,5]", r.Value)
		}
		if r.User < 0 || r.User >= 50 || r.Item < 0 || r.Item >= 40 {
			t.Fatalf("rating indices out of range: %+v", r)
		}
	}
	// Roughly PerUser ratings per user on average.
	perUser := float64(len(ratings)) / 50
	if perUser < 5 || perUser > 20 {
		t.Fatalf("average ratings per user %.1f, expected near 10", perUser)
	}
}

func TestSplitRatings(t *testing.T) {
	cfg := RatingConfig{Users: 30, Items: 30, Dim: 3, PerUser: 15, Scale: 5, Seed: 4}
	ratings, _, _ := PlantedRatings(cfg)
	train, test := SplitRatings(ratings, 0.25, 7)
	if len(train)+len(test) != len(ratings) {
		t.Fatal("split lost ratings")
	}
	frac := float64(len(test)) / float64(len(ratings))
	if frac < 0.1 || frac > 0.4 {
		t.Fatalf("test fraction %.2f far from 0.25", frac)
	}
	// Deterministic.
	train2, _ := SplitRatings(ratings, 0.25, 7)
	if len(train2) != len(train) {
		t.Fatal("split not deterministic")
	}
}

func TestMatrixBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := vec.NewMatrix(13, 7)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	var buf bytes.Buffer
	if err := WriteMatrixBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m, 0) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestMatrixBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadMatrixBinary(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Fatal("expected magic error")
	}
	var buf bytes.Buffer
	m := vec.NewMatrix(2, 2)
	if err := WriteMatrixBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadMatrixBinary(bytes.NewReader(truncated)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestMatrixCSVRoundTrip(t *testing.T) {
	m := vec.FromRows([][]float64{{1.5, -2}, {0, 3.25}})
	var buf bytes.Buffer
	if err := WriteMatrixCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m, 0) {
		t.Fatal("CSV round trip mismatch")
	}
}

func TestMatrixCSVRejectsRagged(t *testing.T) {
	if _, err := ReadMatrixCSV(bytes.NewReader([]byte("1,2\n3\n"))); err == nil {
		t.Fatal("expected ragged-row error")
	}
	if _, err := ReadMatrixCSV(bytes.NewReader([]byte("1,x\n"))); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSaveLoadMatrix(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/factors.fxp"
	m := vec.FromRows([][]float64{{1, 2, 3}})
	if err := SaveMatrix(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m, 0) {
		t.Fatal("save/load mismatch")
	}
}

// Sorted norms should decay smoothly; guard against degenerate all-equal
// or wildly exploding generations (keeps Figure 18/19 plots meaningful).
func TestNormDistributionSane(t *testing.T) {
	ds := Generate(Yelp(), 2000, 10, 0)
	norms := ds.Items.RowNorms()
	sort.Float64s(norms)
	if norms[0] <= 0 {
		t.Fatal("zero-norm item generated")
	}
	ratio := norms[len(norms)-1] / norms[len(norms)/2]
	if ratio < 1.5 || ratio > 1000 {
		t.Fatalf("max/median norm ratio %.2f outside sane range", ratio)
	}
}
