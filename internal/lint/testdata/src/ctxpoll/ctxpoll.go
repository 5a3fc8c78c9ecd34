// Package ctxpoll is a fexlint golden fixture for the cancellation-poll
// contract (DESIGN.md §10). Each `// want` comment asserts one expected
// diagnostic on its line. Collector/Result mimic the real topk types by
// name — ctxpoll matches type names, not import paths — so the fixture
// stays self-contained.
package ctxpoll

import (
	"context"

	"fexipro/internal/lint/testdata/src/ctxpoll/pollee"
)

// Collector mimics topk.Collector.
type Collector struct{ n int }

// Push mimics the collector offer.
func (c *Collector) Push(id int, score float64) bool { c.n++; return true }

// Result mimics topk.Result.
type Result struct {
	ID    int
	Score float64
}

// Poll mimics search.Poll (recognized by name).
func Poll(ctx context.Context, i int) error { return ctx.Err() }

// Scanner is the searcher under test.
type Scanner struct {
	items [][]float64
}

func dot(a, b []float64) float64 {
	var v float64
	for i := range a {
		v += a[i] * b[i]
	}
	return v
}

// SearchContext scans without any poll: the loop must be flagged.
func (s *Scanner) SearchContext(ctx context.Context, q []float64, k int) []Result {
	c := &Collector{}
	for i := range s.items { // want `scan loop reachable from SearchContext cannot be cancelled`
		c.Push(i, dot(q, s.items[i]))
	}
	s.descend(ctx, 0, c)
	return nil
}

// descend polls at function entry, which covers its loop: every node
// visit re-polls (the tree-descent idiom). No diagnostic.
func (s *Scanner) descend(ctx context.Context, node int, c *Collector) error {
	if err := Poll(ctx, node); err != nil {
		return err
	}
	for _, child := range s.kids(node) {
		if s.descend(ctx, child, c) != nil {
			return nil
		}
		c.Push(child, 0)
	}
	return nil
}

func (s *Scanner) kids(int) []int { return nil }

// SearchAboveContext polls inside the loop itself: no diagnostic.
func (s *Scanner) SearchAboveContext(ctx context.Context, q []float64, t float64) ([]Result, error) {
	var out []Result
	for i := range s.items {
		if err := Poll(ctx, i); err != nil {
			return out, err
		}
		if v := dot(q, s.items[i]); v >= t {
			out = append(out, Result{ID: i, Score: v})
		}
	}
	return out, nil
}

// TopKAllContext polls in the enclosing chunk loop (the strided-scan
// idiom); the tight inner loop inherits the cover. Closures are out of
// scope — they run on their own schedule.
func (s *Scanner) TopKAllContext(ctx context.Context, qs [][]float64, k int) [][]Result {
	c := &Collector{}
	for base := 0; base < len(s.items); base += 1024 {
		if err := ctx.Err(); err != nil {
			return nil
		}
		end := base + 1024
		if end > len(s.items) {
			end = len(s.items)
		}
		for i := base; i < end; i++ {
			c.Push(i, 0)
		}
	}
	sel := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.Push(i, 0)
		}
	}
	sel(0, len(s.items))
	return nil
}

// TopKJoinContext demonstrates the guard-free fast path: a loop that
// only runs when ctx.Done() == nil needs no poll, and the cancellable
// path satisfies the contract with a Done-channel select.
func (s *Scanner) TopKJoinContext(ctx context.Context, qs [][]float64, k int) []Result {
	c := &Collector{}
	done := ctx.Done()
	s.joinSwitch(done, c)
	if done == nil {
		for i := range s.items {
			c.Push(i, 0)
		}
		return nil
	}
	for i := range s.items {
		if i&1023 == 0 {
			select {
			case <-done:
				return nil
			default:
			}
		}
		c.Push(i, 0)
	}
	return nil
}

// joinSwitch is the switch form of the fast path: a case whose
// condition requires done == nil guards its loop like an if does.
func (s *Scanner) joinSwitch(done <-chan struct{}, c *Collector) {
	switch {
	case done == nil:
		for i := range s.items {
			c.Push(i, 0)
		}
	}
}

// BatchTopKContext reaches an unpolled scan through a helper: the
// reachability walk must root the diagnostic at the entry point's name.
func (s *Scanner) BatchTopKContext(ctx context.Context, qs [][]float64, k int) []Result {
	c := &Collector{}
	s.scanRange(c)
	return nil
}

func (s *Scanner) scanRange(c *Collector) {
	for i := range s.items { // want `scan loop reachable from BatchTopKContext cannot be cancelled`
		c.Push(i, 0)
	}
}

// Accumulate builds a Result slice without a poll, reached from a
// kernel-shaped Scan entry (context-first method named Scan).
type kern struct{ s *Scanner }

func (k kern) Scan(ctx context.Context, shard int, c *Collector) error {
	var out []Result
	for i := range k.s.items { // want `scan loop reachable from Scan cannot be cancelled`
		out = append(out, Result{ID: i})
	}
	_ = out
	return nil
}

// pollHelper polls at entry; calling it counts as one poll.
func pollHelper(ctx context.Context) error { return ctx.Err() }

// pollChain is an entry poller only transitively: its entry poll is a
// call to pollHelper, resolved by the same-unit fixpoint.
func pollChain(ctx context.Context) error { return pollHelper(ctx) }

// Interproc exercises the interprocedural upgrade: polls may live
// behind same-unit helpers or cross-package callees.
type Interproc struct{ s *Scanner }

func (p *Interproc) SearchContext(ctx context.Context, q []float64, k int) []Result {
	c := &Collector{}
	// Clean: pollHelper is a same-unit entry poller.
	for i := range p.s.items {
		if err := pollHelper(ctx); err != nil {
			return nil
		}
		c.Push(i, 0)
	}
	// Clean: pollChain reaches a poll through another helper.
	for i := range p.s.items {
		if err := pollChain(ctx); err != nil {
			return nil
		}
		c.Push(i, 0)
	}
	// Clean, but only the module phase can tell: pollee.EntryPoll lives
	// in another package, so the unit pass defers via a pending fact and
	// the entrypoll fact exported by pollee resolves it.
	for i := range p.s.items {
		if err := pollee.EntryPoll(ctx, i); err != nil {
			return nil
		}
		c.Push(i, 0)
	}
	// Flagged in the module phase: the only cross-package callee never
	// polls, so the pending loop is condemned with the callee list.
	for i := range p.s.items { // want `scan loop reachable from SearchContext cannot be cancelled.*NoPoll`
		pollee.NoPoll(i)
		c.Push(i, 0)
	}
	return nil
}

// notReachable has an unpolled scan loop but no context entry point
// reaches it: out of scope for ctxpoll.
func (s *Scanner) notReachable(c *Collector) {
	for i := range s.items {
		c.Push(i, 0)
	}
}
