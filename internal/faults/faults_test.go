package faults

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestZeroPlanInjectsNothing(t *testing.T) {
	h := NewRegistry(1).Enable(SiteScan, Plan{})
	for i := 0; i < 10_000; i++ {
		if err := h.OnItem(i); err != nil {
			t.Fatalf("zero plan OnItem(%d) = %v", i, err)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := h.OnCall(); err != nil {
			t.Fatalf("zero plan OnCall #%d = %v", i, err)
		}
	}
	c := h.Counts()
	if c.Cancels != 0 || c.Panics != 0 || c.Delays != 0 {
		t.Fatalf("zero plan fired faults: %+v", c)
	}
	if c.Items != 10_000 || c.Calls != 1000 {
		t.Fatalf("activity counters wrong: %+v", c)
	}
}

func TestCancelAtItem(t *testing.T) {
	h := NewRegistry(1).Enable(SiteScan, Plan{CancelAtItem: 100})
	for i := 0; i < 100; i++ {
		if err := h.OnItem(i); err != nil {
			t.Fatalf("OnItem(%d) errored before the cancel point: %v", i, err)
		}
	}
	for i := 100; i < 110; i++ {
		err := h.OnItem(i)
		if err == nil {
			t.Fatalf("OnItem(%d) = nil, want error at/after cancel point", i)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("OnItem(%d) error %v does not wrap ErrInjected", i, err)
		}
	}
	if c := h.Counts(); c.Cancels != 10 {
		t.Fatalf("Cancels = %d, want 10", c.Cancels)
	}
}

func TestPanicAtItem(t *testing.T) {
	h := NewRegistry(1).Enable(SiteScan, Plan{PanicAtItem: 3})
	for i := 0; i < 3; i++ {
		if err := h.OnItem(i); err != nil {
			t.Fatalf("OnItem(%d) = %v", i, err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("OnItem(3) did not panic")
			}
		}()
		_ = h.OnItem(3)
	}()
	if c := h.Counts(); c.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", c.Panics)
	}
	// Item indices other than the exact target never panic.
	if err := h.OnItem(4); err != nil {
		t.Fatalf("OnItem(4) = %v", err)
	}
}

func TestItemLatencyEvery(t *testing.T) {
	h := NewRegistry(1).Enable(SiteScan, Plan{
		ItemLatency:      time.Microsecond,
		ItemLatencyEvery: 50,
	})
	for i := 0; i < 200; i++ {
		if err := h.OnItem(i); err != nil {
			t.Fatalf("OnItem(%d) = %v", i, err)
		}
	}
	// Items 0, 50, 100, 150 sleep.
	if c := h.Counts(); c.Delays != 4 {
		t.Fatalf("Delays = %d, want 4", c.Delays)
	}
}

func TestFailEveryNCalls(t *testing.T) {
	h := NewRegistry(1).Enable(SiteServerSearch, Plan{FailEveryNCalls: 3})
	var failed []int
	for i := 1; i <= 9; i++ {
		if err := h.OnCall(); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d error %v does not wrap ErrInjected", i, err)
			}
			failed = append(failed, i)
		}
	}
	want := []int{3, 6, 9}
	if len(failed) != len(want) {
		t.Fatalf("failed calls %v, want %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("failed calls %v, want %v", failed, want)
		}
	}
}

func TestPanicEveryNCalls(t *testing.T) {
	h := NewRegistry(1).Enable(SiteServerMutate, Plan{PanicEveryNCalls: 2})
	if err := h.OnCall(); err != nil {
		t.Fatalf("call 1 = %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("call 2 did not panic")
			}
		}()
		_ = h.OnCall()
	}()
}

// TestFailProbDeterministic pins the replay contract: the same seed and
// call order produce the exact same fault sequence, and different sites
// (or seeds) draw independently.
func TestFailProbDeterministic(t *testing.T) {
	run := func(seed int64, site string) []bool {
		h := NewRegistry(seed).Enable(site, Plan{FailProb: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = h.OnCall() != nil
		}
		return out
	}
	a := run(42, SiteServerSearch)
	b := run(42, SiteServerSearch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at call %d", i)
		}
	}
	var fails int
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("FailProb 0.3 produced %d/%d failures; generator looks degenerate", fails, len(a))
	}
	c := run(43, SiteServerSearch)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestRegistryLifecycle(t *testing.T) {
	var nilReg *Registry
	if h := nilReg.Hook(SiteScan); h != nil {
		t.Fatal("nil registry returned a hook")
	}
	r := NewRegistry(7)
	if r.Seed() != 7 {
		t.Fatalf("Seed() = %d", r.Seed())
	}
	if h := r.Hook(SiteScan); h != nil {
		t.Fatal("empty registry returned a hook")
	}
	h := r.Enable(SiteScan, Plan{CancelAtItem: 1})
	if got := r.Hook(SiteScan); got != h {
		t.Fatal("Hook did not return the enabled hook")
	}
	if h.Site() != SiteScan {
		t.Fatalf("Site() = %q", h.Site())
	}
	if h.Plan().CancelAtItem != 1 {
		t.Fatalf("Plan() = %+v", h.Plan())
	}
	_ = h.OnItem(5) // fires a cancel
	counts := r.Counts()
	if counts[SiteScan].Cancels != 1 {
		t.Fatalf("registry counts = %+v", counts)
	}
	r.Disable(SiteScan)
	if r.Hook(SiteScan) != nil {
		t.Fatal("Disable left the hook installed")
	}
}

func TestHookSharedAcrossGoroutines(t *testing.T) {
	h := NewRegistry(1).Enable(SiteScan, Plan{CancelAtItem: 1})
	const workers = 8
	donech := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < 1000; i++ {
				_ = h.OnItem(i)
			}
			donech <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-donech
	}
	if c := h.Counts(); c.Items != workers*1000 {
		t.Fatalf("Items = %d, want %d", c.Items, workers*1000)
	}
}

// TestContextPolls: every Err call of a Hook.Context context is one poll,
// run through OnItem with its ordinal counted from 1 — PanicAtItem 1
// panics at the first poll, CancelAtItem 3 ends the context at the third
// with an ErrInjected cause, ItemLatencyEvery 3 stalls polls 3, 6 and 9
// of ten — and the context keeps its parent's values.
func TestContextPolls(t *testing.T) {
	type key struct{}
	parent := context.WithValue(context.Background(), key{}, "v")

	ctx := NewRegistry(1).Enable(SiteScan, Plan{PanicAtItem: 1}).Context(parent)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the first poll did not panic at PanicAtItem 1")
			}
		}()
		_ = ctx.Err()
	}()
	if err := ctx.Err(); err != nil || ctx.Value(key{}) != "v" {
		t.Fatalf("after the panic: Err = %v, Value = %v; want a live context with the parent's value", err, ctx.Value(key{}))
	}

	h := NewRegistry(1).Enable(SiteScan, Plan{CancelAtItem: 3})
	ctx = h.Context(parent)
	for poll := 1; poll <= 5; poll++ {
		err := ctx.Err()
		if (err != nil) != (poll >= 3) {
			t.Fatalf("poll %d: Err = %v, want an error from poll 3 on", poll, err)
		}
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Done is open after the cancelling poll")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrInjected) || !strings.Contains(cause.Error(), "item 3") {
		t.Fatalf("Cause = %v, want the injected cancellation at item 3", cause)
	}
	if c := h.Counts(); c.Items != 5 || c.Cancels != 3 {
		t.Fatalf("counts %+v, want 5 polls and 3 cancels", c)
	}

	h = NewRegistry(1).Enable(SiteScan, Plan{ItemLatency: time.Microsecond, ItemLatencyEvery: 3})
	ctx = h.Context(parent)
	for poll := 1; poll <= 10; poll++ {
		if err := ctx.Err(); err != nil {
			t.Fatalf("poll %d: %v", poll, err)
		}
	}
	if c := h.Counts(); c.Delays != 3 {
		t.Fatalf("Delays = %d over ten polls, want 3", c.Delays)
	}
}

// openDeadline is a context whose deadline passes on the clock while its
// Done channel stays open — the state a scan sees after a stall, before
// the runtime runs the timer that would close Done.
type openDeadline struct {
	context.Context
	at time.Time
}

func (c openDeadline) Deadline() (time.Time, bool) { return c.at, true }
func (openDeadline) Done() <-chan struct{}         { return make(chan struct{}) }

// TestContextDeadlineAfterStall: a poll whose injected stall runs past the
// parent's deadline ends the context with DeadlineExceeded even though
// the parent itself never reports done; a poll before the deadline does
// not.
func TestContextDeadlineAfterStall(t *testing.T) {
	parent := openDeadline{context.Background(), time.Now().Add(100 * time.Millisecond)}
	ctx := NewRegistry(1).Enable(SiteScan, Plan{ItemLatency: 150 * time.Millisecond, ItemLatencyEvery: 2}).Context(parent)
	if err := ctx.Err(); err != nil {
		t.Fatalf("poll 1, before the deadline: %v", err)
	}
	if err := ctx.Err(); err == nil || !errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		t.Fatalf("poll 2, stalled past the deadline: Err = %v, Cause = %v; want DeadlineExceeded", err, context.Cause(ctx))
	}
	if parent.Err() != nil {
		t.Fatal("the parent reports done; the test would not show the clock check")
	}
}

// TestNilHookContext: with no hook installed a scan runs under its
// caller's context itself.
func TestNilHookContext(t *testing.T) {
	parent := context.Background()
	if got := NewRegistry(1).Hook(SiteScan).Context(parent); got != parent {
		t.Fatalf("nil hook's Context = %v, want the parent", got)
	}
}

// TestContextConcurrentPolls: polls from several goroutines draw distinct
// ordinals — 8 × 1000 polls under CancelAtItem 4001 cancel exactly 4000
// times — and the context ends; run under -race by make race-subset.
func TestContextConcurrentPolls(t *testing.T) {
	const workers, polls = 8, 1000
	h := NewRegistry(1).Enable(SiteScan, Plan{CancelAtItem: workers*polls/2 + 1})
	ctx := h.Context(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < polls; i++ {
				_ = ctx.Err()
			}
		}()
	}
	wg.Wait()
	if c := h.Counts(); c.Items != workers*polls || c.Cancels != workers*polls/2 || ctx.Err() == nil {
		t.Fatalf("counts %+v, Err %v; want %d polls, %d cancels and a done context", c, ctx.Err(), workers*polls, workers*polls/2)
	}
}
