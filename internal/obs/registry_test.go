package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("test_total", "help") != c {
		t.Fatal("counter not deduplicated")
	}
	// Different labels are distinct series.
	c2 := r.Counter("test_total", "help", L("x", "1"))
	if c2 == c {
		t.Fatal("labeled counter aliased unlabeled one")
	}

	g := r.Gauge("test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lbl_total", "", L("b", "2"), L("a", "1"))
	b := r.Counter("lbl_total", "", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order should not create distinct series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("dual", "")
}

func TestInvalidMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid name")
		}
	}()
	r.Counter("9bad-name", "")
}

// TestValidMetricNameEdgeCases exercises the Prometheus metric-name
// grammar boundary cases. ValidMetricName is what the registry checks
// every family name against, the only enforcement point of the grammar.
func TestValidMetricNameEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		valid bool
	}{
		{"", false},                      // empty
		{"9leading", false},              // digit may not lead
		{"_leading_underscore", true},    // underscore may lead
		{":leading_colon", true},         // colon may lead (recording rules)
		{"fexipro:recorded:total", true}, // interior colons
		{"fexipro_queries_total", true},  // canonical form
		{"a9", true},                     // digit after first char
		{"fexipro-dash", false},          // dash is outside the grammar
		{"h\u00e9llo", false},            // non-ASCII rune anywhere
		{"caf\u00e9_total", false},       // non-ASCII rune mid-name
		{"has space", false},             // whitespace
		{"tab\tname", false},             // control character
		{"\u00e9", false},                // single multi-byte rune at position 0
	}
	for _, tc := range cases {
		if got := ValidMetricName(tc.name); got != tc.valid {
			t.Errorf("ValidMetricName(%q) = %v, want %v", tc.name, got, tc.valid)
		}
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 2, 5})

	h.Observe(0.5)        // ≤1
	h.Observe(1.0)        // boundary: counted in le=1 (Prometheus ≤ semantics)
	h.Observe(1.5)        // ≤2
	h.Observe(2.0)        // boundary le=2
	h.Observe(5.0)        // boundary le=5
	h.Observe(7.0)        // +Inf only
	h.Observe(math.NaN()) // dropped

	cum := h.CumulativeBuckets()
	want := []int64{2, 4, 5, 6}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (all: %v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+5+7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestHistogramBadBucketsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-increasing buckets")
		}
	}()
	r.Histogram("bad_seconds", "", []float64{1, 1})
}

// TestConcurrentWriters hammers one registry from many goroutines —
// run under -race. Counters must not lose increments.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Mix registration and increment paths.
				r.Counter("conc_total", "h", L("g", fmt.Sprint(g%4))).Inc()
				r.Gauge("conc_gauge", "h").Set(float64(i))
				r.Histogram("conc_seconds", "h", []float64{0.5, 1}).Observe(float64(i%3) / 2)
			}
		}(g)
	}
	wg.Wait()

	var total int64
	for g := 0; g < 4; g++ {
		total += r.Counter("conc_total", "h", L("g", fmt.Sprint(g))).Value()
	}
	if want := int64(goroutines * perG); total != want {
		t.Fatalf("lost increments: %d, want %d", total, want)
	}
	if got := r.Histogram("conc_seconds", "h", []float64{0.5, 1}).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "", L("a", "x")).Add(3)
	r.Gauge("snap_gauge", "").Set(1.25)
	r.Histogram("snap_seconds", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap[`snap_total{a=x}`] != 3 {
		t.Fatalf("snapshot counter: %v", snap)
	}
	if snap["snap_gauge"] != 1.25 {
		t.Fatalf("snapshot gauge: %v", snap)
	}
	if snap["snap_seconds"] != 1 {
		t.Fatalf("snapshot histogram count: %v", snap)
	}
}

func TestTraceIDs(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 32 {
			t.Fatalf("trace id %q has length %d, want 32", id, len(id))
		}
		if !ValidTraceID(id) {
			t.Fatalf("generated id %q not valid", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
	for _, bad := range []string{"", "has space", "semi;colon", string(make([]byte, 65))} {
		if ValidTraceID(bad) {
			t.Fatalf("ValidTraceID(%q) = true", bad)
		}
	}
}
