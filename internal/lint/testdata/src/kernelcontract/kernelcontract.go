// Package kernelcontract is the boundflow fixture for kernel-shaped
// code: the threshold label under a kernel-shaped Scan, its operator
// fixes, and the prune-exit rule. It keeps the name of the retired
// kernelcontract analyzer, whose cases it carries.
package kernelcontract

import "context"

// SharedThreshold mimics search.SharedThreshold.
type SharedThreshold struct{ v float64 }

// Floor mimics the monotone-max read.
func (s *SharedThreshold) Floor(local float64) float64 { return s.v }

// Collector mimics topk.Collector.
type Collector struct{ t float64 }

// Threshold mimics the heap-root read.
func (c *Collector) Threshold() float64 { return c.t }

// Push mimics the collector offer.
func (c *Collector) Push(int, float64) bool { return true }

// Stats mirrors search.Stats.
type Stats struct {
	Scanned        int
	PrunedByLength int
}

// Kern is shaped like engine.Kernel: the functions its Scan reaches are
// where threshold-derived values are labelled.
type Kern struct {
	norms []float64
	tails []float64
}

// Scan carries two non-conservative threshold comparisons, each with
// the fix that restores the conservative operator.
func (k *Kern) Scan(ctx context.Context, pq any, shard int, c *Collector, shared *SharedThreshold) (Stats, error) {
	var st Stats
	t := shared.Floor(c.Threshold())
	for i, n := range k.norms {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if n <= t { // want `comparison "<=" on a threshold-derived value.*; use <$`
			st.PrunedByLength++
			continue
		}
		if t >= n { // want `comparison ">=" on a threshold-derived value.*; use >$`
			st.PrunedByLength++
			continue
		}
		if n < t { // strict prune: conservative, no diagnostic
			st.PrunedByLength++
			continue
		}
		if n >= t { // tie-keeping keep: conservative, no diagnostic
			c.Push(i, n)
		}
		k.tailTest(i, t, &st)
	}
	k.keepSide(t, &st)
	s := &searcher{norms: k.norms}
	s.searchBad(c)
	s.searchGood(c)
	return st, k.helper(t)
}

// helper receives a threshold-derived value through a call argument:
// the label crosses the call and survives arithmetic.
func (k *Kern) helper(t float64) error {
	limit := t * 0.5
	if 1.0 == limit { // want `comparison "==" on a threshold-derived value`
		return nil
	}
	if 1.0 < limit { // derived on the right, strict prune: fine
		return nil
	}
	return nil
}

// tailTest takes its counters as a parameter, the F-SIR cascade's shape:
// a prune exit here must count.
func (k *Kern) tailTest(i int, t float64, stats *Stats) bool {
	ub := k.norms[i] * k.tails[i] //fex:bound
	if ub < t {                   // want `prune exit does not increment a PrunedBy\* stage counter`
		return false
	}
	stats.Scanned++
	return true
}

// keepSide: the break runs when the prune does NOT hold (scanBlocked's
// run-halving shape), so it owes no counter.
func (k *Kern) keepSide(t float64, stats *Stats) int {
	end := len(k.norms)
	for end > 0 {
		lenBound := k.norms[end-1] //fex:bound
		if !(lenBound < t) {
			break
		}
		stats.PrunedByLength++
		end--
	}
	return end
}

// searcher counts through a Stats field of its receiver.
type searcher struct {
	stats Stats
	norms []float64
}

func (s *searcher) searchBad(c *Collector) {
	t := c.Threshold()
	for _, n := range s.norms {
		if n < t { // want `prune exit does not increment a PrunedBy\* stage counter`
			break
		}
		s.stats.Scanned++
	}
}

func (s *searcher) searchGood(c *Collector) {
	t := c.Threshold()
	theta := t * 0.5 // the label survives arithmetic
	for i, n := range s.norms {
		if n < theta { // counted prune: allowed
			s.stats.PrunedByLength += len(s.norms) - i
			break
		}
		s.stats.Scanned++
	}
}
