// Package faults is a deterministic, seeded fault-injection registry
// for the retrieval stack. It exists so the failure behaviour of a
// FEXIPRO deployment — deadline expiry mid-scan, panics inside the
// pruning cascade, injected latency, flaky handlers — can be driven
// from tests exactly and reproducibly, instead of hoping a loaded CI
// machine happens to hit the window.
//
// Two kinds of injection site exist:
//
//   - scans: a query runs under Hook.Context(ctx), whose every poll (one
//     per search.CheckStride rows or tree nodes) runs Hook.OnItem, so the
//     scan loops carry no fault code and run exactly as in production.
//   - calls: the HTTP server calls Hook.OnCall() at the top of guarded
//     handlers, letting tests inject per-request latency, failures, and
//     panics through the full middleware stack, and the WAL on appends.
//
// All faults are deterministic: counted faults (every-nth, at-item-i)
// depend only on call order, and probabilistic faults draw from a
// per-site rand.Rand derived from the registry seed, so a failing run
// replays bit-identically from the same seed.
package faults

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the cause of every fault-injected cancellation or
// failure. Callers surface it wrapped (scan loops wrap it in
// search.ErrDeadline); match with errors.Is.
var ErrInjected = errors.New("faults: injected fault")

// Canonical site names. A Registry may hold hooks under any string, but
// the server and the test battery agree on these.
const (
	// SiteScan fires on every poll of a scan under Hook.Context.
	SiteScan = "scan"
	// SiteServerSearch fires at the top of /v1/search and /v1/above.
	SiteServerSearch = "server.search"
	// SiteServerMutate fires at the top of /v1/items mutations.
	SiteServerMutate = "server.mutate"
	// SiteWALWrite fires once per WAL append (snap.WAL.Append): OnItem
	// receives the record's sequence number, then OnCall runs. A failure
	// or panic from either makes the append tear deterministically — half
	// the record reaches disk, the WAL marks itself failed — which is how
	// the crash-recovery battery manufactures torn writes on demand.
	SiteWALWrite = "wal.write"
)

// Plan describes the deterministic faults a Hook injects. The zero
// value injects nothing.
type Plan struct {
	// CancelAtItem makes OnItem return an ErrInjected-wrapping error for
	// every item ≥ the given value (under Hook.Context, every poll from
	// that ordinal on: the scan ends with partial results). 0 disables.
	CancelAtItem int
	// PanicAtItem makes OnItem panic at exactly this item (for a scan, on
	// the goroutine that makes that poll). 0 disables.
	PanicAtItem int
	// ItemLatency is slept inside OnItem on every item that is a multiple
	// of ItemLatencyEvery (default: every item when ItemLatency > 0),
	// slowing a scan so wall-clock deadlines reliably expire mid-scan.
	ItemLatency      time.Duration
	ItemLatencyEvery int

	// CallLatency is slept on every OnCall.
	CallLatency time.Duration
	// FailEveryNCalls makes every nth OnCall (1-based) return an
	// ErrInjected-wrapping error. 0 disables.
	FailEveryNCalls int
	// PanicEveryNCalls makes every nth OnCall (1-based) panic. 0
	// disables.
	PanicEveryNCalls int
	// FailProb makes OnCall fail with the given probability, drawn from
	// the hook's seeded generator (deterministic per seed and call
	// order). 0 disables.
	FailProb float64
}

// Counts is a snapshot of a hook's activity, for asserting that
// injected faults actually fired (and exactly how often).
type Counts struct {
	Items   int64 // OnItem invocations
	Calls   int64 // OnCall invocations
	Cancels int64 // errors returned (items + calls)
	Panics  int64 // panics raised
	Delays  int64 // latency injections performed
}

// Hook is one installed fault site. The plan is immutable after
// Enable; counters are atomic, so a single hook may be shared by any
// number of concurrent scans or handlers.
type Hook struct {
	site string
	plan Plan

	items   atomic.Int64
	calls   atomic.Int64
	cancels atomic.Int64
	panics  atomic.Int64
	delays  atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand // probabilistic faults only; guarded by mu
}

// Site returns the name the hook was registered under.
func (h *Hook) Site() string { return h.site }

// Plan returns the (immutable) fault plan.
func (h *Hook) Plan() Plan { return h.plan }

// Counts returns a snapshot of the hook's activity counters.
func (h *Hook) Counts() Counts {
	return Counts{
		Items:   h.items.Load(),
		Calls:   h.calls.Load(),
		Cancels: h.cancels.Load(),
		Panics:  h.panics.Load(),
		Delays:  h.delays.Load(),
	}
}

// OnItem is the per-item injection point: of a Context on every poll, of
// the WAL on every append. It may sleep, panic, or return an error the
// caller must surface as a failure.
func (h *Hook) OnItem(i int) error {
	h.items.Add(1)
	p := &h.plan
	if p.PanicAtItem > 0 && i == p.PanicAtItem {
		h.panics.Add(1)
		panic(fmt.Sprintf("faults: injected panic at item %d (site %q)", i, h.site))
	}
	if p.ItemLatency > 0 {
		every := p.ItemLatencyEvery
		if every <= 0 {
			every = 1
		}
		if i%every == 0 {
			h.delays.Add(1)
			time.Sleep(p.ItemLatency)
		}
	}
	if p.CancelAtItem > 0 && i >= p.CancelAtItem {
		h.cancels.Add(1)
		return fmt.Errorf("%w: forced cancellation at item %d (site %q)", ErrInjected, i, h.site)
	}
	return nil
}

// Context returns parent, derived so that every poll of it — an Err call,
// as search.Poll makes — runs OnItem with the poll's ordinal, counted from
// 1 across all polling goroutines: it may sleep, panic on the polling
// goroutine, or cancel the context with its error as the cause. The
// parent's deadline is then checked against the clock, so a scan stalled
// past it stops even before the runtime runs the timer that closes Done.
// A nil hook returns parent itself.
func (h *Hook) Context(parent context.Context) context.Context {
	if h == nil {
		return parent
	}
	ctx, cancel := context.WithCancelCause(parent)
	return &pollContext{Context: ctx, hook: h, cancel: cancel}
}

// pollContext is the context Hook.Context returns.
type pollContext struct {
	context.Context
	hook   *Hook
	cancel context.CancelCauseFunc
	polls  atomic.Int64
}

// Err is one poll.
func (c *pollContext) Err() error {
	if err := c.hook.OnItem(int(c.polls.Add(1))); err != nil {
		c.cancel(err)
	} else if dl, ok := c.Deadline(); ok && !time.Now().Before(dl) {
		c.cancel(context.DeadlineExceeded)
	}
	return c.Context.Err()
}

// OnCall is the request-level injection point: handlers call it once
// per guarded request. It may sleep, panic, or return an error the
// handler must map to a failure response.
func (h *Hook) OnCall() error {
	n := h.calls.Add(1)
	p := &h.plan
	if p.CallLatency > 0 {
		h.delays.Add(1)
		time.Sleep(p.CallLatency)
	}
	if p.PanicEveryNCalls > 0 && n%int64(p.PanicEveryNCalls) == 0 {
		h.panics.Add(1)
		panic(fmt.Sprintf("faults: injected panic on call %d (site %q)", n, h.site))
	}
	if p.FailEveryNCalls > 0 && n%int64(p.FailEveryNCalls) == 0 {
		h.cancels.Add(1)
		return fmt.Errorf("%w: forced failure on call %d (site %q)", ErrInjected, n, h.site)
	}
	if p.FailProb > 0 {
		h.mu.Lock()
		v := h.rng.Float64()
		h.mu.Unlock()
		if v < p.FailProb {
			h.cancels.Add(1)
			return fmt.Errorf("%w: probabilistic failure on call %d (site %q)", ErrInjected, n, h.site)
		}
	}
	return nil
}

// Registry maps site names to hooks. All methods are safe for
// concurrent use. The registry seed (plus the site name) seeds each
// hook's generator, so a whole fault campaign replays from one number.
type Registry struct {
	seed  int64
	mu    sync.RWMutex
	sites map[string]*Hook
}

// NewRegistry returns an empty registry whose probabilistic faults
// derive from seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{seed: seed, sites: make(map[string]*Hook)}
}

// Seed returns the registry seed (for failure reports).
func (r *Registry) Seed() int64 { return r.seed }

// Enable installs (replacing any previous hook) a fault plan at site
// and returns the hook.
func (r *Registry) Enable(site string, p Plan) *Hook {
	hash := fnv.New64a()
	_, _ = hash.Write([]byte(site)) // fnv.Write never fails
	h := &Hook{
		site: site,
		plan: p,
		rng:  rand.New(rand.NewSource(r.seed ^ int64(hash.Sum64()))),
	}
	r.mu.Lock()
	r.sites[site] = h
	r.mu.Unlock()
	return h
}

// Disable removes the hook at site, if any.
func (r *Registry) Disable(site string) {
	r.mu.Lock()
	delete(r.sites, site)
	r.mu.Unlock()
}

// Hook returns the hook installed at site, or nil — the nil result is
// what production sees, and its Context is free.
func (r *Registry) Hook(site string) *Hook {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.sites[site]
	r.mu.RUnlock()
	return h
}

// Counts returns a snapshot of every installed hook's counters, keyed
// by site.
func (r *Registry) Counts() map[string]Counts {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Counts, len(r.sites))
	for site, h := range r.sites {
		out[site] = h.Counts()
	}
	return out
}
