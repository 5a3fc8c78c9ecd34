package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region of a query's execution: transform, a shard
// scan, the canonical merge, an index rebuild. Spans form a tree (a
// root per query, children per stage), carry small typed attributes,
// and measure monotonic wall time from StartChild to End.
//
// The API is nil-tolerant by design: every method on a nil *Span is a
// no-op, and StartSpan returns nil when the context's Query carries no
// span. That nil path IS the tracing-disabled fast path — it costs the
// one context value lookup a query makes anyway (QueryFrom) and zero
// allocations, so the hot search path pays nothing when tracing is off
// (BenchmarkSpanOverhead pins this below 1%).
//
// Concurrency: StartChild and the Attr setters are safe to call from
// multiple goroutines (the sharded engine starts one child per shard
// from its worker pool). End must be called exactly once per span,
// after every child has ended; reading a tree (Snapshot, Children,
// Duration) is safe only after the root has ended, which is when the
// serving layer hands it to the trace ring.
type Span struct {
	name  string
	start time.Time
	dur   atomic.Int64 // nanoseconds; 0 until End

	mu sync.Mutex
	//fex:guard mu
	attrs    []spanAttr
	children []*Span
}

// spanAttr is one typed key/value attribute. Values are either int64
// or string — the two shapes every span site here needs — so attaching
// an attribute never boxes through an interface.
type spanAttr struct {
	key   string
	num   int64
	str   string
	isNum bool
}

// NewRoot starts a new root span. Callers that want the span to flow
// into downstream stages put it in the context as the Query's Span.
func NewRoot(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild starts a child span under s. On a nil receiver it returns
// nil, so call sites need no enabled-check of their own.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End freezes the span's duration. Ending an already-ended span keeps
// the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur.CompareAndSwap(0, int64(time.Since(s.start)))
}

// AttrInt attaches an integer attribute (no-op on nil).
func (s *Span) AttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key: key, num: v, isNum: true})
	s.mu.Unlock()
}

// AttrStr attaches a string attribute (no-op on nil).
func (s *Span) AttrStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key: key, str: v})
	s.mu.Unlock()
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's monotonic start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the frozen duration (0 before End or on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.dur.Load())
}

// Children returns the child spans in start order (nil on nil).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	s.mu.Unlock()
	return out
}

// ChildDuration sums the durations of every direct child named name —
// the accessor stage-timing consumers (fexbench -statsjson, the
// server's log summaries) use to fold a span tree into per-stage
// totals.
func (s *Span) ChildDuration(name string) time.Duration {
	var total time.Duration
	for _, c := range s.Children() {
		if c.name == name {
			total += c.Duration()
		}
	}
	return total
}

// SpanJSON is the wire shape of one span subtree, served by
// GET /debug/queries and reused by any offline consumer of recorded
// traces.
type SpanJSON struct {
	Name           string         `json:"name"`
	DurationMicros int64          `json:"durationMicros"`
	Attrs          map[string]any `json:"attrs,omitempty"`
	Children       []SpanJSON     `json:"children,omitempty"`
}

// Snapshot renders the span tree into its JSON shape. Call only after
// the root has ended (the trace ring's contract).
func (s *Span) Snapshot() SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	s.mu.Lock()
	attrs := make([]spanAttr, len(s.attrs))
	copy(attrs, s.attrs)
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()

	out := SpanJSON{Name: s.name, DurationMicros: s.Duration().Microseconds()}
	if len(attrs) > 0 {
		out.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			if a.isNum {
				out.Attrs[a.key] = a.num
			} else {
				out.Attrs[a.key] = a.str
			}
		}
	}
	for _, c := range children {
		out.Children = append(out.Children, c.Snapshot())
	}
	return out
}

// TraceEntry is one completed, recorded query: its identity, outcome
// metadata, and the ended span tree. Entries are immutable once
// recorded.
type TraceEntry struct {
	TraceID string
	Method  string // "search", "above", "add", "delete"
	K       int
	At      time.Time // wall-clock completion time
	Took    time.Duration
	Exact   bool
	Stats   *StageCounters // searches only
	Root    *Span          // ended root span
}

// TraceRing is the slow-query log: a fixed-size ring of completed
// trace entries. Record is O(1) under one short mutex hold (no
// allocation after the ring fills), so it is cheap enough to sit on
// the serving path of every traced query.
type TraceRing struct {
	mu    sync.Mutex
	buf   []TraceEntry
	next  int
	count int
	total uint64
}

// NewTraceRing returns a ring keeping the most recent n entries
// (n < 1 is clamped to 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]TraceEntry, n)}
}

// Record stores one completed entry, evicting the oldest when full.
func (r *TraceRing) Record(e TraceEntry) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

// Entries returns the recorded entries, newest first.
func (r *TraceRing) Entries() []TraceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEntry, 0, r.count)
	for i := 1; i <= r.count; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Total returns how many entries have ever been recorded (recorded
// minus len(Entries()) is how many the ring has evicted).
func (r *TraceRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
