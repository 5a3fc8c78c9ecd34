package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/scan"
	"fexipro/internal/search"
	"fexipro/internal/snap"
	"fexipro/internal/svd"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// perLayer is reported by every traced run. "moves" in README.md says
// which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{name: "vec.dot_ns", unit: "ns"},
	{name: "vec.dot_range_ns", unit: "ns"},
	{name: "vec.dot_int16_ns", unit: "ns"},
	{name: "topk.push_ns", unit: "ns"},
	{name: "svd.decompose_ms", unit: "ms"},
	{name: "core.build_ms", unit: "ms"},
	{name: "core.retriever_us", unit: "us"},
	{name: "core.scanned_per_query", unit: "count", exact: true},
	{name: "core.full_products_per_query", unit: "count", exact: true},
	{name: "core.pruned_length_share", unit: "ratio", exact: true},
	{name: "core.pruned_int_head_share", unit: "ratio", exact: true},
	{name: "core.pruned_int_full_share", unit: "ratio", exact: true},
	{name: "core.pruned_incremental_share", unit: "ratio", exact: true},
	{name: "core.pruned_monotone_share", unit: "ratio", exact: true},
	{name: "core.ns_per_scanned", unit: "ns"},
	{name: "core.batch_qps", unit: "1/s"},
	{name: "core.index_bytes_per_item", unit: "B"},
	{name: "scan.naive_us", unit: "us"},
	{name: "core.speedup_vs_naive_x", unit: "x"},
	{name: "engine.s1_overhead_us", unit: "us"},
	{name: "engine.s2_us", unit: "us"},
	{name: "engine.s2_speedup_x", unit: "x"},
	{name: "core.dynamic_search_us", unit: "us"},
	{name: "core.dynamic_self_us", unit: "us"},
	{name: "core.dynamic_add_us", unit: "us"},
	{name: "core.dynamic_delete_us", unit: "us"},
	{name: "core.dynamic_rebuilds", unit: "count", exact: true},
	{name: "server.handler_us", unit: "us"},
	{name: "server.self_us", unit: "us"},
	{name: "server.add_us", unit: "us"},
	{name: "server.delete_us", unit: "us"},
	{name: "server.c2_scaling_x", unit: "x"},
	{name: "server.c2_p50_us", unit: "us"},
	{name: "server.c2_p95_us", unit: "us"},
	{name: "server.loopback_us", unit: "us"},
	{name: "server.resp_bytes", unit: "B"},
	{name: "snap.wal_append_us", unit: "us"},
	{name: "snap.checkpoint_ms", unit: "ms"},
	{name: "snap.bytes_per_item", unit: "B", exact: true},
	{name: "snap.recover_ms", unit: "ms"},
	{name: "snap.index_save_ms", unit: "ms"},
	{name: "snap.index_load_ms", unit: "ms"},
	{name: "obs.trace_overhead_pct", unit: "%"},
}

// span is one timed call into a layer. The traced round issues each
// request once at every depth of the ladder, one call after the other,
// so Parent follows the program's call nesting rather than containment
// in time; Nesting says so.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder started
	EndNs   int64  `json:"end_ns"`
	Nesting string `json:"nesting"`
}

// recorder keeps the spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

// add records one call and returns its span ID for children to name.
func (r *recorder) add(name string, request, parent int, at time.Time, took time.Duration) int {
	start := at.Sub(r.t0).Nanoseconds()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartNs: start, EndNs: start + took.Nanoseconds(), Nesting: "declared",
	})
	return id
}

// timed runs fn under the monotonic clock and records it.
func (r *recorder) timed(name string, request, parent int, fn func()) int {
	at := time.Now()
	fn()
	return r.add(name, request, parent, at, time.Since(at))
}

// medians returns, per span name, the median duration and the median
// self time (duration minus the children's durations) in µs.
func (r *recorder) medians() (dur, self map[string]float64) {
	children := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range r.spans {
		d := s.EndNs - s.StartNs
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(d-children[s.ID])/1e3)
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for name := range durs {
		dur[name], self[name] = median(durs[name]), median(selfs[name])
	}
	return dur, self
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// medianMs times fn `times` times and returns the median in ms.
func medianMs(times int, fn func() error) (float64, error) {
	ms := make([]float64, times)
	for i := range ms {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ms), nil
}

// nsPerCall times `passes` passes of `calls` calls each and returns the
// fastest pass's time per call in ns: the passes stream the whole
// catalog, and a neighbour using the memory bus only ever adds time.
func nsPerCall(passes, calls int, pass func()) float64 {
	best := math.Inf(1)
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		pass()
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return best
}

// kernelMetrics times the vec kernels over the catalog's rows and the
// collector over one query's naive score stream.
func kernelMetrics(in *inputs, q []float64, w int, m map[string]float64) {
	const passes = 11
	items, n := in.items, in.n
	m["vec.dot_ns"] = nsPerCall(passes, n, func() {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += vec.Dot(q, items.Row(i))
		}
		runtime.KeepAlive(acc)
	})
	m["vec.dot_range_ns"] = nsPerCall(passes, n, func() {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += vec.DotRange(q, items.Row(i), w, dim)
		}
		runtime.KeepAlive(acc)
	})

	// The integer kernel runs on the paper's e = 100 scaling of the rows.
	floors := func(v []float64, out []int16) {
		for j, x := range v {
			out[j] = int16(math.Floor(x * 100))
		}
	}
	rows16 := make([]int16, n*dim)
	for i := 0; i < n; i++ {
		floors(items.Row(i), rows16[i*dim:(i+1)*dim])
	}
	q16 := make([]int16, dim)
	floors(q, q16)
	m["vec.dot_int16_ns"] = nsPerCall(passes, n, func() {
		var acc int64
		for i := 0; i < n; i++ {
			acc += vec.DotInt16(q16, rows16[i*dim:(i+1)*dim])
		}
		runtime.KeepAlive(acc)
	})

	scores := make([]float64, n)
	for i := range scores {
		scores[i] = vec.Dot(q, items.Row(i))
	}
	c := topk.New(topK)
	m["topk.push_ns"] = nsPerCall(passes, n, func() {
		c.Reset()
		for i, s := range scores {
			c.Push(i, s)
		}
	})
}

// tracer carries one traced run: the inputs, the metrics gathered so
// far, the spans and the op counts.
type tracer struct {
	w         workload
	in        *inputs
	b         *bodies
	searches  []op // the searches of in.seq, in order
	m         map[string]float64
	rec       recorder
	attempted int
	failed    int
}

// fail counts a non-nil err at any depth as a failed op.
func (t *tracer) fail(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: traced %s: %v\n", t.w.name, what, err)
		t.failed++
	}
}

func (t *tracer) query(o op) []float64 { return t.in.queries.Row(o.arg) }

// tracedRun measures every layer on w's inputs and returns the tracer
// holding the metrics, the spans and the op counts. The work is fixed
// by the workload and the seed, not by a time budget, so the counts
// repeat exactly.
func tracedRun(w workload, cfg config) (*tracer, error) {
	p, err := prepare(w, cfg)
	if err != nil {
		return nil, err
	}
	t := &tracer{w: p.w, in: p.in, b: p.bodies, m: map[string]float64{}}
	if t.b == nil {
		if t.b, err = encodeBodies(t.in); err != nil {
			return nil, err
		}
	}
	for _, o := range t.in.seq {
		if o.kind == opSearch {
			t.searches = append(t.searches, o)
		}
	}

	// One ordinary untraced round is what the tracing overhead is
	// measured against.
	plain, err := p.runRound(0, false)
	if err != nil {
		return nil, err
	}
	t.attempted, t.failed = plain.attempted, plain.failed
	p.pub = nil // the library's copy of the catalog is not needed again

	opts, err := core.OptionsForVariant("F-SIR")
	if err != nil {
		return nil, err
	}
	idx, err := t.buildLayers(opts)
	if err != nil {
		return nil, err
	}
	dyn, err := core.NewDynamicIndex(t.in.items, opts, 0)
	if err != nil {
		return nil, err
	}
	dir, err := freshDataDir(w.name, "trace")
	if err != nil {
		return nil, err
	}
	srv, err := newServed(t.in, t.b, dir)
	if err != nil {
		return nil, err
	}
	err = t.tracedRound(idx, dyn, srv)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		return nil, err
	}

	outer := "core.retriever"
	if w.serve {
		outer = "server.handler"
	}
	dur, _ := t.rec.medians()
	untraced, _ := searchMicros(t.in.seq, plain.took)
	t.m["obs.trace_overhead_pct"] = (dur[outer]/nearestRank(untraced, 50) - 1) * 100
	return t, nil
}

// buildLayers times what set-up is made of — the decomposition, the
// index build, the index codec — and the kernels the scan calls.
func (t *tracer) buildLayers(opts core.Options) (*core.Index, error) {
	m, in := t.m, t.in
	var err error
	if m["svd.decompose_ms"], err = medianMs(3, func() error {
		_, err := svd.Decompose(in.items, opts.RankTol)
		return err
	}); err != nil {
		return nil, err
	}
	before := heapMiB()
	var idx *core.Index
	if m["core.build_ms"], err = medianMs(3, func() error {
		idx, err = core.NewIndex(in.items, opts)
		return err
	}); err != nil {
		return nil, err
	}
	m["core.index_bytes_per_item"] = (heapMiB() - before) * (1 << 20) / float64(in.n)
	kernelMetrics(in, t.query(t.searches[0]), idx.W(), m)

	var saved bytes.Buffer
	if m["snap.index_save_ms"], err = medianMs(3, func() error {
		saved.Reset()
		return idx.Save(&saved)
	}); err != nil {
		return nil, err
	}
	if m["snap.index_load_ms"], err = medianMs(3, func() error {
		_, err := core.ReadIndex(bytes.NewReader(saved.Bytes()))
		return err
	}); err != nil {
		return nil, err
	}
	return idx, nil
}

// tracedRound replays the op sequence once at every depth of the ladder
// server.handler ⊃ core.dynamic ⊃ engine.s1 ⊃ core.retriever, then runs
// the phases that need the same server: two clients, loopback, the
// mutation tail, the WAL and recovery.
func (t *tracer) tracedRound(idx *core.Index, dyn *core.DynamicIndex, srv *served) error {
	m, in, ctx := t.m, t.in, context.Background()
	var err error
	if m["snap.checkpoint_ms"], err = medianMs(1, srv.srv.Checkpoint); err != nil {
		return err
	}
	st, err := os.Stat(filepath.Join(srv.dir, core.SnapshotFile))
	if err != nil {
		return err
	}
	m["snap.bytes_per_item"] = float64(st.Size()) / float64(in.n)

	t.rec.t0 = time.Now()
	ops := append(append([]op(nil), in.seq...), in.tail...)
	replies := make([]reply, len(ops)) // the server's, for the oracle
	parent := make([]int, len(ops))    // by op: its span one depth up
	var (
		respBytes []float64
		logged    []op // acknowledged mutations, for the WAL layer
	)
	call := srv.client()
	decode := oracleSearches
	serverPass := func(from, to int) {
		spanName := map[opKind]string{opSearch: "server.handler", opAdd: "server.add", opDelete: "server.delete"}
		for i := from; i < to; i++ {
			o := ops[i]
			r := call(o, o.kind == opSearch && decode > 0)
			t.fail("server", r.err)
			replies[i] = r
			parent[i] = t.rec.add(spanName[o.kind], i+1, 0, r.at, r.took)
			switch {
			case o.kind == opSearch:
				decode--
				respBytes = append(respBytes, float64(r.bytes))
			case r.err == nil:
				logged = append(logged, o)
			}
		}
	}
	dynamicPass := func(from, to int) {
		for i := from; i < to; i++ {
			o := ops[i]
			switch o.kind {
			case opSearch:
				parent[i] = t.rec.timed("core.dynamic", i+1, parent[i], func() {
					_, err := dyn.SearchContext(ctx, t.query(o), topK)
					t.fail("core.dynamic", err)
				})
			case opAdd:
				t.rec.timed("core.dynamic_add", i+1, parent[i], func() {
					_, err := dyn.AddContext(ctx, in.all.Row(in.n+o.arg))
					t.fail("core.dynamic_add", err)
				})
			case opDelete:
				t.rec.timed("core.dynamic_delete", i+1, parent[i], func() {
					t.fail("core.dynamic_delete", dyn.DeleteContext(ctx, o.arg))
				})
			}
		}
	}
	// staticPass issues the searches of ops[from:to] at a depth
	// mutations do not reach.
	staticPass := func(name string, s search.ContextSearcher, from, to int) {
		for i := from; i < to; i++ {
			if o := ops[i]; o.kind == opSearch {
				parent[i] = t.rec.timed(name, i+1, parent[i], func() {
					_, err := s.SearchContext(ctx, t.query(o), topK)
					t.fail(name, err)
				})
			}
		}
	}

	s1 := engine.New(core.NewSharded(idx, 1), 1)
	ret := &countingRetriever{Retriever: core.NewRetriever(idx)}
	for i := 0; i < t.w.warm; i++ {
		call(op{opSearch, i}, false)
		for _, s := range []search.ContextSearcher{dyn, s1, ret.Retriever} {
			_, err := s.SearchContext(ctx, in.queries.Row(i), topK)
			t.fail("warm-up", err)
		}
	}
	// The depths take turns in blocks of ladderBlock ops: long enough
	// that each depth has the caches to itself as in an untraced round
	// (the depths hold separate copies of the index), short enough that
	// a burst of interference on the box hits all four alike.
	for lo := 0; lo < len(in.seq); lo += ladderBlock {
		hi := min(lo+ladderBlock, len(in.seq))
		serverPass(lo, hi)
		dynamicPass(lo, hi)
		staticPass("engine.s1", s1, lo, hi)
		staticPass("core.retriever", ret, lo, hi)
	}
	stats := ret.total

	// Same server, same searches, one caller then two: what a second
	// client adds, and what the kernel's TCP path adds over loopback.
	some := t.searches[:min(len(t.searches), 300)]
	one, wall := replay(call, some, 0)
	us, bad := searchLatencies(some, one)
	twice := append(append([]op(nil), some...), some...)
	two, wall2 := replayClosedLoop(srv.system(), twice, 2)
	us2, bad2 := searchLatencies(twice, two)
	m["server.c2_scaling_x"] = perSecond(len(twice)-bad2, wall2) / perSecond(len(some)-bad, wall)
	m["server.c2_p50_us"], m["server.c2_p95_us"] = nearestRank(us2, 50), nearestRank(us2, 95)
	few := some[:min(len(some), 200)]
	over, bad3, err := loopbackLatencies(srv.handler, t.b, few)
	if err != nil {
		return err
	}
	m["server.loopback_us"] = nearestRank(over, 50) - nearestRank(us, 50)
	t.attempted += len(ops) + len(some) + len(twice) + len(few)
	t.failed += bad + bad2 + bad3

	serverPass(len(in.seq), len(ops))
	dynamicPass(len(in.seq), len(ops))

	// Inner layers the ladder does not reach.
	s2 := engine.New(core.NewSharded(idx, 2), 2)
	m["engine.s2_us"] = median(t.timeSearches(few, func(o op) error {
		_, err := s2.SearchContext(ctx, t.query(o), topK)
		return err
	}))
	naive := scan.NewNaive(in.items)
	m["scan.naive_us"] = median(t.timeSearches(few[:min(len(few), 100)], func(o op) error {
		_, err := naive.SearchContext(ctx, t.query(o), topK)
		return err
	}))
	timed := in.queries.Slice(t.w.warm, in.queries.Rows)
	t0 := time.Now()
	_, err = core.BatchTopK(idx, timed, topK, 2)
	t.fail("core.batch", err)
	m["core.batch_qps"] = perSecond(timed.Rows, time.Since(t0))

	// The WAL layer on the run's own records, the oracle's verdict on
	// the server's answers, then restart cost on the data dir the round
	// leaves behind.
	if m["snap.wal_append_us"], err = walAppendMicros(filepath.Join(srv.dir, "bench.wal"), in, logged); err != nil {
		return err
	}
	t.failed += verify(t.w.name, in, srv.system(), ops, replies)
	if err := srv.srv.ClosePersistence(); err != nil {
		return err
	}
	if m["snap.recover_ms"], err = medianMs(1, func() error {
		back, err := core.OpenRecovered(ctx, srv.dir, 1, 1)
		if err != nil {
			return err
		}
		return back.WAL.Close()
	}); err != nil {
		return err
	}

	// Reduce the spans and counters.
	dur, self := t.rec.medians()
	m["core.retriever_us"] = dur["core.retriever"]
	m["engine.s1_overhead_us"] = self["engine.s1"]
	m["core.dynamic_search_us"], m["core.dynamic_self_us"] = dur["core.dynamic"], self["core.dynamic"]
	m["server.handler_us"], m["server.self_us"] = dur["server.handler"], self["server.handler"]
	m["server.add_us"], m["server.delete_us"] = dur["server.add"], dur["server.delete"]
	m["core.dynamic_add_us"], m["core.dynamic_delete_us"] = dur["core.dynamic_add"], dur["core.dynamic_delete"]
	m["server.resp_bytes"] = median(respBytes)
	m["engine.s2_speedup_x"] = m["core.retriever_us"] / m["engine.s2_us"]
	m["core.speedup_vs_naive_x"] = m["scan.naive_us"] / m["core.retriever_us"]
	for _, rebuilds := range dyn.Rebuilds() {
		m["core.dynamic_rebuilds"] += float64(rebuilds)
	}
	queries, all := float64(len(t.searches)), float64(in.n*len(t.searches))
	m["core.scanned_per_query"] = float64(stats.Scanned) / queries
	m["core.full_products_per_query"] = float64(stats.FullProducts) / queries
	m["core.ns_per_scanned"] = m["core.retriever_us"] * 1e3 / m["core.scanned_per_query"]
	m["core.pruned_length_share"] = float64(stats.PrunedByLength) / all
	m["core.pruned_int_head_share"] = float64(stats.PrunedByIntHead) / all
	m["core.pruned_int_full_share"] = float64(stats.PrunedByIntFull) / all
	m["core.pruned_incremental_share"] = float64(stats.PrunedByIncremental) / all
	m["core.pruned_monotone_share"] = float64(stats.PrunedByMonotone) / all
	return nil
}

// ladderBlock is how many consecutive ops one depth of the ladder
// issues before the next depth takes over.
const ladderBlock = 32

// countingRetriever sums the stage counters of every search it answers.
type countingRetriever struct {
	*core.Retriever
	total search.Stats
}

func (c *countingRetriever) SearchContext(ctx context.Context, q []float64, k int) ([]topk.Result, error) {
	res, err := c.Retriever.SearchContext(ctx, q, k)
	c.total.Add(c.Retriever.Stats())
	return res, err
}

// timeSearches times one call per op and returns the latencies in µs.
func (t *tracer) timeSearches(ops []op, do func(op) error) []float64 {
	us := make([]float64, len(ops))
	for i, o := range ops {
		t0 := time.Now()
		err := do(o)
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		t.fail("search", err)
	}
	return us
}

// loopbackLatencies serves h on 127.0.0.1 and sends ops through
// net/http over one keep-alive connection, returning the sorted
// latencies in µs and the failed count.
func loopbackLatencies(h http.Handler, b *bodies, ops []op) (us []float64, failed int, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	hs := &http.Server{Handler: h}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(ln) // always ErrServerClosed after Close below
	}()
	tr := &http.Transport{MaxConnsPerHost: 1}
	call := loopbackClient(&http.Client{Transport: tr}, "http://"+ln.Addr().String(), b)
	for _, o := range ops[:min(len(ops), 20)] {
		call(o, false)
	}
	replies, _ := replay(call, ops, 0)
	us, failed = searchLatencies(ops, replies)
	tr.CloseIdleConnections()
	err = hs.Close()
	wg.Wait()
	return us, failed, err
}

// walAppendMicros appends the run's acknowledged mutations to a fresh
// WAL with an fsync per record and returns the median append in µs.
func walAppendMicros(path string, in *inputs, logged []op) (float64, error) {
	wal, _, err := snap.OpenWAL(path, dim, 1, 0)
	if err != nil {
		return 0, err
	}
	us := make([]float64, 0, len(logged))
	for _, o := range logged {
		kind, item := snap.WALDelete, []float64(nil)
		id := int64(o.arg)
		if o.kind == opAdd {
			kind, item, id = snap.WALAdd, in.all.Row(in.n+o.arg), int64(in.n+o.arg)
		}
		t0 := time.Now()
		_, err := wal.Append(kind, id, item)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			_ = wal.Close() // the append error is the one to report
			return 0, err
		}
	}
	return median(us), wal.Close()
}

// tracedRecord runs w traced, writes its spans to
// out/trace-<workload>.json and prints the per-layer metrics by name.
func tracedRecord(w workload, cfg config, stdout io.Writer) (*record, error) {
	t, err := tracedRun(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := writeJSON(path, traceFile{Workload: w.name, Seed: cfg.seed, Spans: t.rec.spans}); err != nil {
		return nil, err
	}
	out := &record{Workload: w.name, Seed: cfg.seed, Trace: true, outcome: outcome{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metricValue{},
	}}
	fmt.Fprintf(stdout, "workload %s seed %d traced, %d spans in %s\n", w.name, cfg.seed, len(t.rec.spans), path)
	for _, d := range perLayer {
		out.Metrics[d.name] = metricValue{t.m[d.name], d.unit}
		fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", d.name, t.m[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "  %-28s %14d\n  %-28s %14d\n", "ops_attempted", t.attempted, "ops_failed", t.failed)
	return out, nil
}
