package main

import (
	"context"
	"fmt"
	"math"

	"fexipro/internal/scan"
	"fexipro/internal/topk"
)

// oracle is the expected state of the catalog and the ground truth for
// searches over it: a naive full scan of every vector that could ever
// be live, filtered to those that are.
type oracle struct {
	naive *scan.Naive
	rows  int // catalog plus the whole add pool
	live  int // rows [0, live) have been added
	dead  map[int]bool
}

func newOracle(in *inputs) *oracle {
	return &oracle{naive: scan.NewNaive(in.all), rows: in.all.Rows, live: in.n, dead: map[int]bool{}}
}

// apply advances the expected catalog by one acknowledged mutation.
func (o *oracle) apply(m op) {
	switch m.kind {
	case opAdd:
		o.live++
	case opDelete:
		o.dead[m.arg] = true
	}
}

// items is the expected live item count.
func (o *oracle) items() int { return o.live - len(o.dead) }

// check compares got with the exact top-k of q over the live catalog:
// scores within 1e-9·max(1,|s|) position by position, IDs equal in the
// canonical (score desc, ID asc) order except among items tied with the
// k-th score within that tolerance.
func (o *oracle) check(q []float64, got []topk.Result) error {
	hidden := len(o.dead) + o.rows - o.live
	cand, err := o.naive.SearchContext(context.Background(), q, topK+hidden)
	if err != nil {
		return err
	}
	want := make([]topk.Result, 0, topK)
	for _, r := range cand {
		if r.ID < o.live && !o.dead[r.ID] && len(want) < topK {
			want = append(want, r)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, want %d", len(got), len(want))
	}
	within := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
	}
	kth := want[len(want)-1].Score
	for j := range want {
		if !within(got[j].Score, want[j].Score) {
			return fmt.Errorf("rank %d: score %v, want %v", j, got[j].Score, want[j].Score)
		}
		if got[j].ID != want[j].ID && !within(want[j].Score, kth) {
			return fmt.Errorf("rank %d: id %d, want %d", j, got[j].ID, want[j].ID)
		}
	}
	return nil
}
