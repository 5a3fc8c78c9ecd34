package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fexipro/internal/core"
	"fexipro/internal/vec"
)

// integerUpperBound computes IU(q,p) of Theorem 2 directly from the
// definition: Σ(⌊q_s⌋·⌊p_s⌋ + |⌊q_s⌋| + |⌊p_s⌋| + 1).
func integerUpperBound(q, p []float64) float64 {
	var iu float64
	for s := range q {
		fq, fp := math.Floor(q[s]), math.Floor(p[s])
		iu += fq*fp + math.Abs(fq) + math.Abs(fp) + 1
	}
	return iu
}

// Theorem 2: IU(q,p) ≥ qᵀp for arbitrary real vectors.
func TestTheorem2IntegerBoundDominates(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		q, p := raw[:half], raw[half:2*half]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return true
			}
		}
		return integerUpperBound(q, p) >= vec.Dot(q, p)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Theorem 5 (Appendix A): the scaled integer bound converges to the exact
// inner product as e grows, with error inversely proportional to e — over
// the e the index takes, up to 127: e·error never grows from one e to the
// next.
func TestIntegerBoundTightness(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	d := 50
	q := make([]float64, d)
	p := make([]float64, d)
	for i := 0; i < d; i++ {
		q[i] = rng.NormFloat64() * 0.4
		p[i] = rng.NormFloat64() * 0.4
	}
	exact := vec.Dot(q, p)
	maxQ, maxP := vec.AbsMax(q), vec.AbsMax(p)

	prevErr, prevE := math.Inf(1), 1.0
	var err10 float64
	for _, e := range []float64{10, 100, 127} {
		qs := vec.Scaled(q, e/maxQ)
		ps := vec.Scaled(p, e/maxP)
		bound := integerUpperBound(qs, ps) * maxQ * maxP / (e * e)
		if bound < exact-1e-9 {
			t.Fatalf("e=%v: bound %v below exact %v", e, bound, exact)
		}
		err := bound - exact
		if err*e > prevErr*prevE {
			t.Fatalf("e=%v: error %v did not shrink like 1/e from %v at e=%v", e, err, prevErr, prevE)
		}
		if e == 10 {
			err10 = err
		}
		prevErr, prevE = err, e
	}
	if prevErr > err10/10 {
		t.Fatalf("error at e=127 still %v, at e=10 %v", prevErr, err10)
	}
}

// Theorem 4 + Lemma 1: the (d+2)-dimensional reduction preserves the
// inner-product ORDER, every reduced item coordinate is nonnegative, and
// the reduced product is an affine function of the original one.
func TestTheorem4OrderPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(12)
		n := 2 + rng.Intn(40)
		items := vec.NewMatrix(n, d)
		for i := range items.Data {
			items.Data[i] = rng.NormFloat64() * 2
		}
		q := make([]float64, d)
		for i := range q {
			q[i] = rng.NormFloat64() * 2
		}
		qn := vec.Norm(q)
		if qn == 0 {
			continue
		}

		// Build the reduction exactly as Section 5.2 specifies.
		pmin := vec.Min(items.Data)
		b := 0.0
		for i := 0; i < n; i++ {
			if nv := vec.Norm(items.Row(i)); nv > b {
				b = nv
			}
		}
		c := make([]float64, d)
		for s := range c {
			c[s] = math.Max(1, math.Abs(pmin)) + rng.Float64() // any c_s ≥ max(1,|p_min|)
		}

		reduce := func(p []float64) []float64 {
			acute := make([]float64, d+1)
			acute[0] = math.Sqrt(math.Max(0, b*b-vec.NormSquared(p)))
			for s := 0; s < d; s++ {
				acute[s+1] = p[s] + c[s]
			}
			hh := make([]float64, d+2)
			hh[0] = vec.NormSquared(acute)
			copy(hh[1:], acute)
			return hh
		}
		qAcute := make([]float64, d+1)
		for s := 0; s < d; s++ {
			qAcute[s+1] = q[s]/qn + c[s]
		}
		qhh := make([]float64, d+2)
		qhh[0] = -1
		for s := 0; s <= d; s++ {
			qhh[s+1] = 2 * qAcute[s]
		}

		type pair struct{ orig, red float64 }
		pairs := make([]pair, n)
		for i := 0; i < n; i++ {
			p := items.Row(i)
			hh := reduce(p)
			for s := 1; s < len(hh); s++ {
				if hh[s] < -1e-12 {
					t.Fatalf("reduced item coordinate %d negative: %v", s, hh[s])
				}
			}
			pairs[i] = pair{orig: vec.Dot(q, p), red: vec.Dot(qhh, hh)}
		}
		// Order preservation: strictly increasing map.
		for a := 0; a < n; a++ {
			for bb := 0; bb < n; bb++ {
				if pairs[a].orig > pairs[bb].orig+1e-9 && pairs[a].red <= pairs[bb].red-1e-9 {
					t.Fatalf("order violated: orig %v>%v but reduced %v<=%v",
						pairs[a].orig, pairs[bb].orig, pairs[a].red, pairs[bb].red)
				}
			}
		}
		// Affine relationship: red = (2/‖q‖)·orig + K_q.
		var sumCQ, sumC2 float64
		for s := 0; s < d; s++ {
			sumCQ += c[s] * q[s]
			sumC2 += c[s] * c[s]
		}
		kq := -b*b + sumC2 + 2*sumCQ/qn
		for _, pr := range pairs {
			want := 2*pr.orig/qn + kq
			if math.Abs(pr.red-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("affine map violated: reduced %v, want %v", pr.red, want)
			}
		}
	}
}

// The Eq. 6 partial integer bound must dominate the head inner product
// for every split w.
func TestEquation6PartialIntegerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		d := 2 + rng.Intn(20)
		w := 1 + rng.Intn(d-1)
		q := make([]float64, d)
		p := make([]float64, d)
		for i := 0; i < d; i++ {
			q[i] = rng.NormFloat64() * 3
			p[i] = rng.NormFloat64() * 3
		}
		head := integerUpperBound(q[:w], p[:w])
		tail := vec.NormRange(q, w, d) * vec.NormRange(p, w, d)
		if vec.Dot(q, p) > head+tail+1e-9 {
			t.Fatalf("Eq.6 violated: exact %v > %v", vec.Dot(q, p), head+tail)
		}
	}
}

// PruneSlack=0 reproduces the paper's strict comparisons and must still
// be exact on generic (non-adversarial) data.
func TestStrictComparisonsStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	items := vec.NewMatrix(500, 16)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true, PruneSlack: -1})
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRetriever(idx)
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 16)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		got := r.Search(q, 5)
		if len(got) != 5 {
			t.Fatalf("got %d results", len(got))
		}
	}
}
