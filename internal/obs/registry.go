// Package obs is the production observability layer: a stdlib-only,
// concurrency-safe metrics registry with Prometheus text exposition,
// the shared per-pruning-stage counter schema used by both the HTTP
// service and the offline benchmark harness, and request trace IDs.
//
// The paper's evaluation (Tables 3/7, Figures 5–9) is built on exactly
// the signals a deployment needs continuously: per-stage pruning
// counts, full inner-product counts, and per-query latency. This
// package makes those signals first-class at runtime instead of
// benchmark-only.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families. All methods are safe for
// concurrent use; hot-path increments are lock-free after the first
// registration of a (name, labels) series.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name with help text and its label-keyed series.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]any // seriesKey → *Counter | *Gauge | *Histogram
	order  []string       // insertion order of keys (sorted at exposition)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v      atomic.Int64
	labels []Label
}

// Add increments the counter by n (n < 0 is ignored: counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that may go up and down.
type Gauge struct {
	bits   atomic.Uint64
	labels []Label
}

// Set assigns the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram with a sum and a
// count, in Prometheus semantics: bucket i counts observations
// ≤ buckets[i], plus an implicit +Inf bucket.
type Histogram struct {
	buckets []float64 // upper bounds, strictly increasing
	counts  []atomic.Int64
	inf     atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
	labels  []Label
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound admits v.
	idx := sort.SearchFloat64s(h.buckets, v)
	if idx < len(h.buckets) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// CumulativeBuckets returns the cumulative (Prometheus-style) count per
// upper bound, including the final +Inf bucket.
func (h *Histogram) CumulativeBuckets() []int64 {
	out := make([]int64, len(h.buckets)+1)
	var cum int64
	for i := range h.buckets {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	out[len(h.buckets)] = cum + h.inf.Load()
	return out
}

// Label is one name=value metric dimension.
type Label struct {
	Name, Value string
}

// L is shorthand for building a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// DefLatencyBuckets are the default latency buckets in seconds,
// spanning 50µs–5s — chosen to resolve both the sub-millisecond
// retrievals of Figure 9 and slow cold-start outliers.
var DefLatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1, 2.5, 5,
}

func (r *Registry) getFamily(name, help string, kind metricKind, buckets []float64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok = r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]any)}
	r.families[name] = f
	return f
}

// Counter returns (registering on first use) the counter series for the
// given name, help, and labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, kindCounter, nil)
	return f.get(labels, func(ls []Label) any { return &Counter{labels: ls} }).(*Counter)
}

// Gauge returns (registering on first use) the gauge series for the
// given name, help, and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.getFamily(name, help, kindGauge, nil)
	return f.get(labels, func(ls []Label) any { return &Gauge{labels: ls} }).(*Gauge)
}

// Histogram returns (registering on first use) the histogram series for
// the given name, help, buckets, and labels. Buckets must be strictly
// increasing; nil selects DefLatencyBuckets. Buckets are fixed by the
// first registration of the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	f := r.getFamily(name, help, kindHistogram, buckets)
	return f.get(labels, func(ls []Label) any {
		return &Histogram{buckets: f.buckets, counts: make([]atomic.Int64, len(f.buckets)), labels: ls}
	}).(*Histogram)
}

// get returns the series for labels, creating it with mk on first use.
// mk runs before the write lock is taken (a losing racer's value is
// discarded), keeping caller-supplied code out of the held region.
func (f *family) get(labels []Label, mk func([]Label) any) any {
	ls := normalizeLabels(labels)
	key := seriesKey(ls)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	created := mk(ls)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	f.series[key] = created
	f.order = append(f.order, key)
	return created
}

// normalizeLabels copies and sorts labels by name for a canonical key.
func normalizeLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func seriesKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// ValidMetricName reports whether name satisfies the Prometheus metric
// naming grammar [a-zA-Z_:][a-zA-Z0-9_:]*. The registry is the one place
// that enforces it: registering a family under any other name panics, so
// a malformed Metric* constant fails the first test that registers it.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Snapshot returns a flat map of every scalar series value keyed as
// name{labels} — counters as their count, gauges as their value,
// histograms as their observation count. Used for final-state logging
// on shutdown and in tests.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.RLock()
		for key, s := range f.series {
			id := f.name
			if key != "" {
				id += "{" + key + "}"
			}
			switch m := s.(type) {
			case *Counter:
				out[id] = float64(m.Value())
			case *Gauge:
				out[id] = m.Value()
			case *Histogram:
				out[id] = float64(m.Count())
			}
		}
		f.mu.RUnlock()
	}
	return out
}

// Default is the process-wide registry used when no explicit registry
// is wired; cmd/fexserve uses its own instance.
var Default = NewRegistry()
