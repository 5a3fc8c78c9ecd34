// Package topk implements the bounded top-k collector used by every
// retrieval method in this repository (Algorithm 1's priority queue r and
// threshold t).
//
// The collector is a fixed-capacity binary min-heap over scores: the root
// always holds the k-th largest score seen so far, which is exactly the
// pruning threshold t that the scan algorithms compare bounds against.
// The query mode is a property of the collector, not of the scan: New(k)
// is top-k, NewAbove(t) the paper's §9 above-t task — the same scan
// against a threshold that starts at t and, with k unbounded, stays there.
package topk

import (
	"math"
	"slices"
)

// Result is one retrieved item: its identifier in the original item
// ordering and its (exact) inner-product score.
type Result struct {
	ID    int
	Score float64
}

// Collector accumulates the k largest-scoring items seen so far.
// The zero value is not usable; call New.
//
// The heap is ordered by the CANONICAL total order shared with
// SortResults: higher score wins, exact score ties are won by the
// LOWER ID. This matters for sharded execution (DESIGN.md §11): when S
// shards each collect a local top-k and the engine merges them, the
// retained set at every tie boundary must be independent of scan order
// and shard count. With the canonical order the k retained items are a
// pure function of the offered (id, score) multiset, so S=1 and S>1
// runs are bit-identical even on degenerate inputs (duplicate rows,
// all-zero queries) where many exact ties occur.
type Collector struct {
	k     int
	items []Result // min-heap: root is the canonically worst retained item
	// floor is the pruning threshold and the fast-reject cutoff for Push:
	// empty while the heap has room, the root score once it is full. A
	// candidate scoring strictly below floor cannot enter; ties go
	// through pushSlow for the canonical ID comparison.
	floor float64
	// empty is the floor of the empty collector: -Inf for top-k (nothing
	// can be rejected until the heap fills), +Inf for k == 0, t for
	// NewAbove(t), whose heap never fills.
	empty float64
}

// worse reports whether a ranks strictly below b in the canonical order
// (score descending, ties by ascending ID). The exact float compare is
// deliberate: it defines the deterministic total order, not a tolerance
// test.
func worse(a, b Result) bool {
	if a.Score != b.Score { //lint:ignore floatcmp exact compare defines the deterministic total order
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// New returns a collector retaining the k best results. k must be ≥ 0;
// a collector with k == 0 retains nothing and has threshold +Inf so
// every candidate is pruned immediately.
func New(k int) *Collector {
	if k < 0 {
		panic("topk: negative k")
	}
	empty := math.Inf(-1)
	if k == 0 {
		empty = math.Inf(1)
	}
	return &Collector{k: k, items: make([]Result, 0, k), floor: empty, empty: empty}
}

// NewAbove returns the fixed-threshold collector: it retains every
// candidate scoring at least t, however many, and its Threshold is t from
// the first row to the last — so a scan written for top-k prunes against
// the constant and answers above-t, and since it is never full nothing is
// ever published to sibling shards. Hostile thresholds are decided here,
// once: -Inf retains every candidate offered; +Inf and NaN, which no score
// is at least, retain none (New(0)). A NaN score — a non-finite query;
// items are checked when indexed — is below no threshold and is retained,
// as New retains it while it has room.
func NewAbove(t float64) *Collector {
	if !(t < math.Inf(1)) {
		return New(0)
	}
	return &Collector{k: math.MaxInt, floor: t, empty: t}
}

// Fresh returns an empty collector of the same k and starting threshold
// as c: a shard's own collector beside the one its results merge into.
func (c *Collector) Fresh() *Collector {
	return &Collector{k: c.k, items: make([]Result, 0, cap(c.items)), floor: c.empty, empty: c.empty}
}

// K returns the collector's capacity.
func (c *Collector) K() int { return c.k }

// Len returns the number of results currently held.
func (c *Collector) Len() int { return len(c.items) }

// Threshold returns the current pruning threshold t: the smallest score
// in the heap once it is full; while it is not, -Inf for top-k (so
// nothing is pruned until k candidates have been scored), +Inf for
// k == 0 and the fixed t of NewAbove. Scan loops read it once per item,
// so it must stay inlinable.
//
//fex:inline
func (c *Collector) Threshold() float64 { return c.floor }

// Push offers a candidate. It returns true if the candidate entered the
// top-k (displacing the canonically worst retained item if the heap was
// full). When the heap is full, a candidate enters iff it ranks
// strictly above the root in the canonical order — in particular a
// candidate that exactly ties the threshold score displaces the root
// only when its ID is smaller, keeping the retained set scan-order
// independent.
//
// Push itself is only the fast reject — the overwhelmingly common
// outcome once the heap is full mid-scan — and must stay cheap enough
// to inline into the scan kernels; the heap restructuring lives in
// pushSlow.
//
//fex:inline
func (c *Collector) Push(id int, score float64) bool {
	if score < c.floor {
		return false
	}
	return c.pushSlow(id, score)
}

// pushSlow handles every candidate the floor compare could not reject:
// the heap still has room, the candidate beats the floor, or it ties
// the floor score exactly and the canonical ID comparison decides. NaN
// scores land here too and lose to everything under worse.
func (c *Collector) pushSlow(id int, score float64) bool {
	if c.k == 0 {
		return false
	}
	cand := Result{ID: id, Score: score}
	if len(c.items) < c.k {
		c.items = append(c.items, cand)
		c.siftUp(len(c.items) - 1)
		if len(c.items) == c.k {
			c.floor = c.items[0].Score
		}
		return true
	}
	if !worse(c.items[0], cand) {
		return false
	}
	c.items[0] = cand
	c.siftDown(0)
	c.floor = c.items[0].Score
	return true
}

// Results returns the collected items sorted by descending score
// (ties broken by ascending ID for determinism). The collector is not
// modified and remains usable.
func (c *Collector) Results() []Result {
	out := make([]Result, len(c.items))
	copy(out, c.items)
	SortResults(out)
	return out
}

// SortResults orders results by descending score with ties broken by
// ascending ID — the one canonical result ordering shared by every
// retrieval method, so exactness tests can compare outputs verbatim.
// The exact (non-epsilon) score comparison is deliberate: it defines a
// total order for deterministic tie-breaking, not a tolerance test.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
}

// Reset empties the collector, keeping its capacity.
func (c *Collector) Reset() {
	c.items = c.items[:0]
	c.floor = c.empty
}

func (c *Collector) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(c.items[i], c.items[parent]) {
			return
		}
		c.items[parent], c.items[i] = c.items[i], c.items[parent]
		i = parent
	}
}

func (c *Collector) siftDown(i int) {
	n := len(c.items)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && worse(c.items[l], c.items[worst]) {
			worst = l
		}
		if r < n && worse(c.items[r], c.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		c.items[i], c.items[worst] = c.items[worst], c.items[i]
		i = worst
	}
}
