package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	s.End()
	s.AttrInt("k", 1)
	s.AttrStr("method", "search")
	if c := s.StartChild("x"); c != nil {
		t.Fatalf("StartChild on nil span returned %v, want nil", c)
	}
	if s.Name() != "" || s.Duration() != 0 || s.Children() != nil {
		t.Fatal("nil span accessors must return zero values")
	}
	if got := s.Snapshot(); got.Name != "" || got.Children != nil {
		t.Fatalf("nil span snapshot = %+v, want zero", got)
	}
}

func TestStartSpanWithoutParentIsDisabled(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "search")
	if sp != nil {
		t.Fatalf("StartSpan without a parent returned %v, want nil", sp)
	}
	if ctx2 != ctx {
		t.Fatal("disabled StartSpan must return the context unchanged")
	}
	if QueryFrom(ctx).Span != nil {
		t.Fatal("background context must carry no span")
	}
}

func TestSpanTreeNesting(t *testing.T) {
	root := NewRoot("search")
	ctx := WithQuery(context.Background(), Query{Span: root})

	ctx2, tr := StartSpan(ctx, "transform")
	if tr == nil {
		t.Fatal("StartSpan under a root must create a child")
	}
	if QueryFrom(ctx2).Span != tr {
		t.Fatal("StartSpan must store the child in the returned context")
	}
	tr.End()

	scan := root.StartChild("scan")
	for i := 0; i < 3; i++ {
		sh := scan.StartChild("shard")
		sh.AttrInt("shard", int64(i))
		time.Sleep(time.Millisecond)
		sh.End()
	}
	scan.End()
	root.End()

	if got := len(root.Children()); got != 2 {
		t.Fatalf("root has %d children, want 2", got)
	}
	shards := scan.Children()
	if len(shards) != 3 {
		t.Fatalf("scan has %d children, want 3", len(shards))
	}
	// Nested, disjoint child intervals can never exceed the parent.
	var sum time.Duration
	for _, sh := range shards {
		if sh.Duration() <= 0 {
			t.Fatalf("shard span duration %v, want > 0", sh.Duration())
		}
		sum += sh.Duration()
	}
	if sum > scan.Duration() {
		t.Fatalf("shard durations sum to %v > scan span %v", sum, scan.Duration())
	}
	if root.ChildDuration("transform")+root.ChildDuration("scan") > root.Duration() {
		t.Fatal("stage durations exceed the root span")
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	s := NewRoot("q")
	time.Sleep(time.Millisecond)
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Fatalf("second End changed duration %v → %v", d, s.Duration())
	}
}

func TestSpanSnapshotAttrs(t *testing.T) {
	s := NewRoot("search")
	s.AttrInt("k", 10)
	s.AttrStr("method", "F-SIR")
	c := s.StartChild("scan")
	c.AttrInt("scanned", 123)
	c.End()
	s.End()

	js := s.Snapshot()
	if js.Name != "search" {
		t.Fatalf("name = %q", js.Name)
	}
	if js.Attrs["k"] != int64(10) || js.Attrs["method"] != "F-SIR" {
		t.Fatalf("attrs = %v", js.Attrs)
	}
	if len(js.Children) != 1 || js.Children[0].Attrs["scanned"] != int64(123) {
		t.Fatalf("children = %+v", js.Children)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewRoot("scan")
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.StartChild("shard")
				c.AttrInt("worker", int64(w))
				c.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != workers*50 {
		t.Fatalf("got %d children, want %d", got, workers*50)
	}
}

func TestTraceRingEviction(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		sp := NewRoot("q")
		sp.End()
		r.Record(TraceEntry{TraceID: fmt.Sprintf("t%d", i), Root: sp})
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	got := r.Entries()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Newest first.
	for i, want := range []string{"t4", "t3", "t2"} {
		if got[i].TraceID != want {
			t.Fatalf("entry %d = %s, want %s", i, got[i].TraceID, want)
		}
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := NewRoot("q")
				sp.End()
				r.Record(TraceEntry{Root: sp})
				_ = r.Entries()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Fatalf("total = %d, want 800", r.Total())
	}
}
