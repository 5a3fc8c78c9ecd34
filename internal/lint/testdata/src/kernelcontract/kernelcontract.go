// Package kernelcontract is a fexlint golden fixture: a structural
// engine.Kernel (methods Shards, Prepare, context-first Scan) whose
// Scan breaks the strict-comparison and no-mutation contracts.
// SharedThreshold and Collector mimic the real types by name.
package kernelcontract

import "context"

// SharedThreshold mimics search.SharedThreshold.
type SharedThreshold struct{ v float64 }

// Floor mimics the monotone-max read.
func (s *SharedThreshold) Floor(local float64) float64 { return s.v }

// Load mimics the raw read.
func (s *SharedThreshold) Load() float64 { return s.v }

// Collector mimics topk.Collector.
type Collector struct{ t float64 }

// Threshold mimics the heap-root read.
func (c *Collector) Threshold() float64 { return c.t }

// Push mimics the collector offer.
func (c *Collector) Push(int, float64) bool { return true }

// Kern structurally implements engine.Kernel.
type Kern struct {
	norms   []float64
	scanned int
}

// Shards implements engine.Kernel.
func (k *Kern) Shards() int { return 1 }

// Prepare implements engine.Kernel.
func (k *Kern) Prepare(q []float64) any { return nil }

// Scan implements engine.Kernel with three contract violations: a
// receiver mutation and two non-conservative threshold comparisons
// (both carry suggested fixes restoring the conservative operator).
func (k *Kern) Scan(ctx context.Context, pq any, shard int, c *Collector, shared *SharedThreshold) error {
	t := shared.Floor(c.Threshold())
	for i, n := range k.norms {
		if err := ctx.Err(); err != nil {
			return err
		}
		k.scanned++ // want `Scan on kernel Kern mutates receiver state`
		if n <= t { // want `threshold comparison "<=" prunes or drops exact ties`
			continue
		}
		if t >= n { // want `threshold comparison ">=" prunes or drops exact ties`
			continue
		}
		if n < t { // strict prune: conservative, no diagnostic
			continue
		}
		if n >= t { // tie-keeping keep: conservative, no diagnostic
			c.Push(i, n)
		}
	}
	return k.helper(t)
}

// helper receives a threshold-derived value through a call argument:
// the fixpoint must carry derivedness across the call and through
// arithmetic.
func (k *Kern) helper(t float64) error {
	limit := t * 0.5
	if 1.0 == limit { // want `threshold comparison "==" prunes or drops exact ties`
		return nil
	}
	if 1.0 < limit { // derived on the right, strict prune: fine
		return nil
	}
	return nil
}
