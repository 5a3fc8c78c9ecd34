package fexipro_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fexipro"
)

func TestSearchAbovePublic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	items := randomItems(rng, 500, 10)
	f, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := fexipro.NewLEMP(items, 0, nil)
	for trial := 0; trial < 5; trial++ {
		q := randomQuery(rng, 10)
		ranked := naiveTopK(items, q, 500)
		thr := ranked[20].Score - 1e-9*(1+math.Abs(ranked[20].Score))
		wantCount := 0
		for _, r := range ranked {
			if r.Score >= thr {
				wantCount++
			}
		}
		for name, got := range map[string][]fexipro.Result{
			"fexipro": f.SearchAbove(q, thr),
			"lemp":    l.SearchAbove(q, thr),
		} {
			if len(got) != wantCount {
				t.Fatalf("%s: got %d results, want %d", name, len(got), wantCount)
			}
			for _, r := range got {
				if r.Score < thr {
					t.Fatalf("%s: %v below threshold %v", name, r.Score, thr)
				}
			}
		}
	}
}

// TestSearchAboveHostileThresholds: the thresholds no score compares
// with sensibly have one decided answer, made where the fixed-threshold
// collector is made — NaN and +Inf return nothing, -Inf every live item —
// for the core scan with and without the block kernel, the dynamic index
// over delta rows and tombstones, and LEMP.
func TestSearchAboveHostileThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	items := randomItems(rng, 500, 10)
	q := randomQuery(rng, 10)

	type aboveSearcher interface {
		SearchAbove(q []float64, t float64) []fexipro.Result
	}
	systems := map[string]aboveSearcher{"LEMP": fexipro.NewLEMP(items, 0, nil)}
	live := map[string]int{"LEMP": 500}
	for _, variant := range []string{"F-SIR", "F"} {
		for _, shards := range []int{1, 3} {
			name := fmt.Sprintf("%s/S=%d", variant, shards)
			f, err := fexipro.New(items, fexipro.Options{Variant: variant, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			systems[name], live[name] = f, 500
		}
	}
	dead := map[int]bool{}
	for _, shards := range []int{1, 3} {
		d, err := fexipro.NewDynamic(items, fexipro.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ { // delta rows
			if _, err := d.Add(randomQuery(rng, 10)); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []int{0, 7, 250, 499, 502} { // tombstones, one of them in the delta
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
			dead[id] = true
		}
		name := fmt.Sprintf("Dynamic/S=%d", shards)
		systems[name], live[name] = d, d.Len()
	}

	for name, s := range systems {
		for _, c := range []struct {
			thr  float64
			want int
		}{{math.NaN(), 0}, {math.Inf(1), 0}, {math.Inf(-1), live[name]}} {
			got := s.SearchAbove(q, c.thr)
			if len(got) != c.want {
				t.Fatalf("%s t=%v: %d results, want %d", name, c.thr, len(got), c.want)
			}
			seen := map[int]bool{}
			for i, r := range got {
				if seen[r.ID] || (strings.HasPrefix(name, "Dynamic") && dead[r.ID]) {
					t.Fatalf("%s t=%v: item %d returned twice or after its delete", name, c.thr, r.ID)
				}
				seen[r.ID] = true
				if i > 0 && got[i-1].Score < r.Score {
					t.Fatalf("%s t=%v: unsorted at rank %d", name, c.thr, i)
				}
			}
		}
	}
}

func TestAboveJoinPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := randomItems(rng, 200, 8)
	queries := randomItems(rng, 6, 8)
	l := fexipro.NewLEMP(items, 0, nil)
	all := l.AboveJoin(queries, 1.0)
	if len(all) != 6 {
		t.Fatalf("got %d lists", len(all))
	}
	for qi, list := range all {
		for _, r := range list {
			if r.Score < 1.0 {
				t.Fatalf("query %d: %v below threshold", qi, r)
			}
		}
	}
}

func TestDynamicPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	items := randomItems(rng, 100, 6)
	d, err := fexipro.NewDynamic(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	newItem := []float64{9, 9, 9, 9, 9, 9}
	id, err := d.Add(newItem)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{1, 1, 1, 1, 1, 1}
	top := d.Search(q, 1)
	if top[0].ID != id {
		t.Fatalf("dominant new item not returned: %v", top)
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
	top = d.Search(q, 1)
	if top[0].ID == id {
		t.Fatal("deleted item returned")
	}
	if _, err := fexipro.NewDynamic(items, fexipro.Options{Variant: "zzz"}); err == nil {
		t.Fatal("expected variant error")
	}
}

func TestTopPairsPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	users := randomItems(rng, 40, 6)
	items := randomItems(rng, 60, 6)
	got, err := fexipro.TopPairs(users, items, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force reference.
	type pr struct {
		u, i int
		s    float64
	}
	var all []pr
	for u := 0; u < 40; u++ {
		for i := 0; i < 60; i++ {
			var s float64
			for j := 0; j < 6; j++ {
				s += users.At(u, j) * items.At(i, j)
			}
			all = append(all, pr{u, i, s})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].s > all[b].s })
	for i := 0; i < 10; i++ {
		if math.Abs(got[i].Score-all[i].s) > 1e-7*(1+math.Abs(all[i].s)) {
			t.Fatalf("rank %d: %v vs %v", i, got[i], all[i])
		}
	}

	sampled, err := fexipro.TopPairsSampled(users, items, 10, 300000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled) == 0 {
		t.Fatal("sampling returned nothing")
	}
	// The single largest pair should be found with high probability.
	if sampled[0].Score < all[0].s-1e-9 && sampled[0].Score < all[2].s {
		t.Fatalf("sampled top %v far below true top %v", sampled[0].Score, all[0].s)
	}
}

func TestTopKAllPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	items := randomItems(rng, 300, 9)
	queries := randomItems(rng, 15, 9)
	f, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := f.TopKAll(queries, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < queries.Rows(); qi++ {
		checkMatch(t, all[qi], naiveTopK(items, queries.Row(qi), 4), "topkall")
	}
	if _, err := f.TopKAll(randomItems(rng, 2, 5), 1, 1); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestSaveLoadIndexPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	items := randomItems(rng, 200, 8)
	f, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/index.fxi"
	if err := f.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := fexipro.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	q := randomQuery(rng, 8)
	a, b := f.Search(q, 5), loaded.Search(q, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %v vs %v", i, a[i], b[i])
		}
	}
	if _, err := fexipro.LoadIndex(t.TempDir() + "/missing.fxi"); err == nil {
		t.Fatal("expected error for missing file")
	}
}
