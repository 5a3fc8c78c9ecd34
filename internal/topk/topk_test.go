package topk

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyCollector(t *testing.T) {
	c := New(3)
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !math.IsInf(c.Threshold(), -1) {
		t.Fatalf("Threshold = %v, want -Inf", c.Threshold())
	}
	if got := c.Results(); len(got) != 0 {
		t.Fatalf("Results = %v", got)
	}
}

func TestZeroK(t *testing.T) {
	c := New(0)
	if c.Push(1, 100) {
		t.Fatal("Push into k=0 collector should report false")
	}
	if !math.IsInf(c.Threshold(), 1) {
		t.Fatalf("Threshold = %v, want +Inf", c.Threshold())
	}
}

func TestNegativeKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestThresholdBecomesKthBest(t *testing.T) {
	c := New(2)
	c.Push(0, 5)
	if !math.IsInf(c.Threshold(), -1) {
		t.Fatal("threshold should stay -Inf until full")
	}
	c.Push(1, 3)
	if c.Threshold() != 3 {
		t.Fatalf("Threshold = %v, want 3", c.Threshold())
	}
	c.Push(2, 4)
	if c.Threshold() != 4 {
		t.Fatalf("Threshold = %v, want 4", c.Threshold())
	}
	got := c.Results()
	if got[0].ID != 0 || got[1].ID != 2 {
		t.Fatalf("Results = %v", got)
	}
}

func TestRejectBelowThreshold(t *testing.T) {
	c := New(1)
	c.Push(0, 10)
	if c.Push(1, 10) {
		t.Fatal("equal score must not displace (ties broken arbitrarily, first wins)")
	}
	if c.Push(2, 9) {
		t.Fatal("lower score must not enter")
	}
	if !c.Push(3, 11) {
		t.Fatal("higher score must enter")
	}
	if got := c.Results(); got[0].ID != 3 {
		t.Fatalf("Results = %v", got)
	}
}

func TestResultsSortedDeterministically(t *testing.T) {
	c := New(4)
	c.Push(7, 1)
	c.Push(3, 2)
	c.Push(5, 2)
	c.Push(1, 0)
	got := c.Results()
	// Descending score; ties by ascending ID.
	want := []Result{{ID: 3, Score: 2}, {ID: 5, Score: 2}, {ID: 7, Score: 1}, {ID: 1, Score: 0}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Results = %v, want %v", got, want)
		}
	}
}

func TestReset(t *testing.T) {
	c := New(2)
	c.Push(0, 1)
	c.Reset()
	if c.Len() != 0 || !math.IsInf(c.Threshold(), -1) {
		t.Fatal("Reset did not clear state")
	}
}

// TestAboveCollector: NewAbove(t) keeps every candidate scoring at least
// t — a tie at t included — in canonical order, its threshold is t before,
// during and after, it is never full, and Fresh and Reset give it back
// empty at the same threshold; NaN and +Inf keep nothing, -Inf everything.
func TestAboveCollector(t *testing.T) {
	c := NewAbove(1.5)
	for id, s := range []float64{2, 1.5, 1.4999, 3, 1.5, -7} {
		if got, want := c.Push(id, s), s >= 1.5; got != want {
			t.Fatalf("Push(%d, %v) = %v, want %v", id, s, got, want)
		}
		if c.Threshold() != 1.5 || c.Len() == c.K() {
			t.Fatalf("after %d pushes: threshold %v, len %d, k %d", id+1, c.Threshold(), c.Len(), c.K())
		}
	}
	want := []Result{{3, 3}, {0, 2}, {1, 1.5}, {4, 1.5}}
	if got := c.Results(); !slices.Equal(got, want) {
		t.Fatalf("Results = %v, want %v", got, want)
	}
	for what, e := range map[string]*Collector{"Fresh": c.Fresh(), "Reset": c} {
		if what == "Reset" {
			e.Reset()
		}
		if e.Len() != 0 || e.Threshold() != 1.5 || e.K() != c.K() {
			t.Fatalf("%s: len %d, threshold %v, k %d", what, e.Len(), e.Threshold(), e.K())
		}
	}
	full := New(2)
	full.Push(0, 5)
	full.Push(1, 6)
	if f := full.Fresh(); f.K() != 2 || f.Len() != 0 || !math.IsInf(f.Threshold(), -1) {
		t.Fatalf("Fresh of a full top-2: k %d, len %d, threshold %v", f.K(), f.Len(), f.Threshold())
	}

	for _, thr := range []float64{math.NaN(), math.Inf(1)} {
		c := NewAbove(thr)
		if c.Push(0, math.MaxFloat64) || c.Push(1, math.Inf(1)) || c.Len() != 0 || !math.IsInf(c.Threshold(), 1) {
			t.Fatalf("NewAbove(%v) kept something or has threshold %v", thr, c.Threshold())
		}
	}
	all := NewAbove(math.Inf(-1))
	if !all.Push(0, -math.MaxFloat64) || !all.Push(1, math.Inf(-1)) || all.Len() != 2 {
		t.Fatal("NewAbove(-Inf) rejected a candidate")
	}
}

// Property: the collector selects exactly the k largest scores of any
// stream, in any insertion order.
func TestSelectsKLargestProperty(t *testing.T) {
	f := func(scores []float64, kRaw uint8) bool {
		for i, s := range scores {
			if math.IsNaN(s) {
				scores[i] = 0
			}
		}
		k := int(kRaw%16) + 1
		c := New(k)
		for id, s := range scores {
			c.Push(id, s)
		}
		got := c.Results()

		want := append([]float64(nil), scores...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Score != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: insertion order never changes the selected score multiset.
func TestOrderInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		k := 1 + rng.Intn(10)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		c1 := New(k)
		for id, s := range scores {
			c1.Push(id, s)
		}
		perm := rng.Perm(n)
		c2 := New(k)
		for _, id := range perm {
			c2.Push(id, scores[id])
		}
		r1, r2 := c1.Results(), c2.Results()
		if len(r1) != len(r2) {
			t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i].Score != r2[i].Score {
				t.Fatalf("score mismatch at %d: %v vs %v", i, r1[i], r2[i])
			}
		}
	}
}

func TestKLargerThanStream(t *testing.T) {
	c := New(10)
	c.Push(0, 1)
	c.Push(1, 2)
	got := c.Results()
	if len(got) != 2 || got[0].ID != 1 {
		t.Fatalf("Results = %v", got)
	}
}
