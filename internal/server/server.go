// Package server exposes a FEXIPRO dynamic index over HTTP with a small
// JSON API — the retrieval phase of Figure 1 as a deployable service:
//
//	POST   /v1/search          {"vector": [...], "k": 10}
//	POST   /v1/above           {"vector": [...], "threshold": 3.5}
//	POST   /v1/items           {"vector": [...]}            → {"id": n}
//	DELETE /v1/items/{id}
//	GET    /v1/info
//	GET    /v1/healthz
//	GET    /metrics            Prometheus text exposition
//	GET    /debug/pprof/       (opt-in via Config.EnablePprof)
//
// Every request is assigned (or propagates) an X-Trace-Id, is measured
// into the metrics registry, and emits one structured log line carrying
// the trace ID, latency, and — for search requests — k plus the
// per-pruning-stage counters of the paper's Tables 3/7.
//
// The request path pays for no reflection on the bodies clients send
// (DESIGN.md §10.5): the three body-carrying routes read the body under
// a 1 MiB cap (413 too_large beyond it) and decode it with a one-pass
// scanner of the canonical request object, falling back to
// encoding/json — still the arbiter of validity and the author of every
// error message — for anything else (decode.go); search answers are
// appended byte for byte as encoding/json would write them (encode.go);
// and the middleware resolves its metric handles once per (method,
// route, status class).
//
// The handler serializes index access with a mutex: FEXIPRO retrievers
// are single-goroutine and the dynamic index mutates on writes. For
// read-heavy deployments, run several replicas of the process or shard
// by item range; the index itself is deterministic and rebuildable from
// the factor file.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/faults"
	"fexipro/internal/obs"
	"fexipro/internal/search"
	"fexipro/internal/snap"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// Config tunes the observability and limits of a Server. The zero value
// is usable: a private metrics registry, a no-op logger, pprof off, no
// timeout, no concurrency limit.
type Config struct {
	// Metrics receives all server and search metrics. Nil allocates a
	// private registry (still served at /metrics).
	Metrics *obs.Registry
	// Logger receives one structured line per request. Nil discards.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// MaxK caps per-request k to bound response sizes (default 1000).
	MaxK int

	// RequestTimeout is the default per-request deadline applied to /v1/
	// routes; 0 disables. Clients may override per request with the
	// X-Timeout-Ms header.
	RequestTimeout time.Duration
	// MaxTimeout caps the effective deadline (default + header); 0 means
	// uncapped. A header value above the cap is clamped, not rejected.
	MaxTimeout time.Duration
	// MaxConcurrent bounds in-flight /v1/ requests; excess requests are
	// shed immediately with 429 and a Retry-After header. 0 disables.
	MaxConcurrent int
	// PartialOnDeadline makes /v1/search and /v1/above answer a deadline
	// expiry with 200 and the best-so-far results flagged "exact": false
	// instead of 504.
	PartialOnDeadline bool
	// Faults, when non-nil, is consulted per request for injected faults
	// at the faults.SiteServerSearch / SiteServerMutate / SiteScan sites.
	// Production servers leave it nil, which costs one nil check.
	//lint:ignore apiparity test-only injection surface, deliberately unreachable from flags
	Faults *faults.Registry

	// Shards splits the dynamic index into that many independent catalog
	// shards (DESIGN.md §11): a single Add or Delete only ever rebuilds
	// the one shard owning the item, and each search fans out across the
	// shards through the sharded execution engine before merging into
	// the exact global top-k. Values ≤ 1 keep the monolithic index.
	Shards int
	// SearchWorkers bounds the per-query goroutine pool when Shards > 1
	// (≤ 0 means GOMAXPROCS, clamped to Shards). Ignored for Shards ≤ 1.
	SearchWorkers int

	// DataDir, when non-empty, enables persistence (DESIGN.md §15): boot
	// loads <dir>/current.snap and replays <dir>/dyn.wal instead of
	// rebuilding the index (a fresh directory is initialized from the
	// initial matrix and checkpointed), and every acknowledged mutation
	// is appended to the WAL before the response is sent. When a
	// snapshot exists it is authoritative: its options and shard count
	// win over the flags, and a dimensionality mismatch with the initial
	// matrix is a startup error.
	DataDir string
	// CheckpointEvery writes a fresh snapshot and truncates the WAL
	// after that many acknowledged mutations; 0 checkpoints only on
	// shutdown and reload. Requires DataDir.
	CheckpointEvery int
	// WALSyncEvery fsyncs the WAL on every Nth append (default 1 =
	// every append). Values > 1 batch fsyncs: higher mutation
	// throughput, but a crash may lose up to N-1 acknowledged records.
	WALSyncEvery int

	// Trace enables per-query span collection (DESIGN.md §13): every
	// /v1/ search and mutation gets a span tree — transform, per-shard
	// scans (with queue-wait and steal provenance), merge, rebuilds —
	// recorded into the slow-query ring served at GET /debug/queries
	// and summarized on the request log line. Off, queries pay only a
	// nil context lookup.
	Trace bool
	// SlowQuery is the minimum duration a traced query must take to
	// enter the /debug/queries ring; 0 records every traced query.
	SlowQuery time.Duration
	// TraceRingSize caps how many completed span trees /debug/queries
	// retains (default 128).
	TraceRingSize int
	// SLOs are the latency objectives whose violations are counted by
	// fexserve_slo_violations_total{objective}; a search or above-t
	// request finishing later than an objective burns it. Nil selects
	// DefaultSLOs.
	SLOs []time.Duration
}

// DefaultSLOs are the latency objectives used when Config.SLOs is nil,
// spanning the envelope of Figure 9's per-query latencies: an
// interactive bar, a comfortable bar, and a "something is wrong" bar.
var DefaultSLOs = []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond}

// Sliding-window shape for the fexipro_search_latency_window_seconds
// quantile gauges: 6 slots of 10s — /metrics answers "how slow are
// searches NOW" over the trailing ~1 minute.
const (
	windowSlots   = 6
	windowSlotDur = 10 * time.Second
)

// Server is the HTTP handler set over one dynamic index.
//
// Lock hierarchy: Server.mu is the outermost lock. While holding it the
// handlers append to the WAL, consult the fault registry, and record
// span attributes — each of which takes its own (leaf) mutex. The
// declarations below are enforced by fexlint's lockorder analyzer and
// mirrored at runtime by TestAcquisitionOrderUnderConcurrentLoad;
// never acquire Server.mu while holding any of these.
//
//fex:lockorder server.Server.mu < snap.WAL.mu
//fex:lockorder server.Server.mu < faults.Registry.mu
//fex:lockorder server.Server.mu < faults.Hook.mu
//fex:lockorder server.Server.mu < obs.Span.mu
type Server struct {
	mu  sync.Mutex
	idx *core.DynamicIndex
	dim int
	// MaxK caps per-request k to bound response sizes (default 1000).
	MaxK int

	cfg     Config
	reg     *obs.Registry
	log     *slog.Logger
	rec     *obs.SearchRecorder
	adds    *obs.Counter
	deletes *obs.Counter
	items   *obs.Gauge

	// observe's per-request metric handles, each resolved through the
	// registry the first time its (method, route, status class) is seen.
	seriesMu sync.RWMutex
	//fex:guard seriesMu
	series map[seriesKey]reqSeries

	// Tracing + SLO state (DESIGN.md §13).
	start       time.Time
	ring        *obs.TraceRing
	window      *obs.Window
	sloObjs     []time.Duration
	sloCounters []*obs.Counter
	uptime      *obs.Gauge
	quantiles   []*obs.Gauge // one per obs.WindowQuantiles entry

	// Persistence state (see persist.go); wal is nil without DataDir.
	wal             *snap.WAL
	dataDir         string
	checkpointEvery int
	sinceCheckpoint int // acknowledged mutations since the last checkpoint (under mu)
	reloading       atomic.Bool
	snapLoad        *obs.Gauge
	snapSave        *obs.Gauge
	snapBytes       *obs.Gauge
	walRecords      *obs.Counter
	walReplays      *obs.Counter

	// Guard stack (see guard.go).
	sem           chan struct{} // nil when MaxConcurrent == 0
	ready         atomic.Bool
	guardSheds    *obs.Counter
	guardTimeouts *obs.Counter
	guardPartials *obs.Counter
	guardPanics   *obs.Counter
	inflight      *obs.Gauge
	readyGauge    *obs.Gauge
}

// New builds a server over an initial item matrix (rows are items; may
// be empty with a positive dimension) using the given FEXIPRO options
// and default observability (private registry, discarded logs).
func New(initial *vec.Matrix, opts core.Options) (*Server, error) {
	return NewWithConfig(initial, opts, Config{})
}

// NewWithConfig builds a server with explicit observability wiring.
func NewWithConfig(initial *vec.Matrix, opts core.Options, cfg Config) (*Server, error) {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	var (
		idx  *core.DynamicIndex
		boot *persistBoot
		err  error
	)
	if cfg.DataDir != "" {
		idx, boot, err = openPersistence(cfg, initial, opts, shards)
	} else {
		idx, err = core.NewDynamicIndexSharded(initial, opts, 0, shards, cfg.SearchWorkers)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 1000
	}
	reg := cfg.Metrics
	s := &Server{
		idx:  idx,
		dim:  idx.Dim(),
		MaxK: cfg.MaxK,
		cfg:  cfg,
		reg:  reg,
		log:  cfg.Logger,
		rec:  obs.NewSearchRecorder(reg, opts.Variant()),
		adds: reg.Counter("fexserve_items_added_total",
			"Items inserted through POST /v1/items."),
		deletes: reg.Counter("fexserve_items_deleted_total",
			"Items retired through DELETE /v1/items/{id}."),
		items: reg.Gauge("fexserve_index_items",
			"Live items currently in the index."),
		series: make(map[seriesKey]reqSeries),
	}
	s.items.Set(float64(idx.Len()))

	// Tracing, windowed quantiles, and SLO burn counters (§13).
	s.start = time.Now()
	obs.RegisterBuildInfo(reg)
	s.uptime = reg.Gauge("fexserve_uptime_seconds",
		"Seconds since the server finished its initial index build (refreshed at scrape).")
	ringSize := cfg.TraceRingSize
	if ringSize <= 0 {
		ringSize = 128
	}
	s.ring = obs.NewTraceRing(ringSize)
	s.window = obs.NewWindow(windowSlots, windowSlotDur, nil)
	for _, q := range obs.WindowQuantiles {
		s.quantiles = append(s.quantiles, reg.Gauge(obs.MetricSearchLatencyWindow,
			"Search latency quantiles over the trailing sliding window (seconds), refreshed at scrape.",
			obs.L("quantile", strconv.FormatFloat(q, 'g', -1, 64))))
	}
	s.sloObjs = cfg.SLOs
	if s.sloObjs == nil {
		s.sloObjs = DefaultSLOs
	}
	for _, obj := range s.sloObjs {
		s.sloCounters = append(s.sloCounters, reg.Counter(obs.MetricSLOViolations,
			"Search requests finishing above a latency objective (SLO burn).",
			obs.L("objective", obj.String())))
	}
	if idx.Shards() > 1 {
		// Per-shard scan wall time (fexipro_shard_scan_seconds), labeled
		// by shard index; the per-shard stage counters already flow into
		// the cumulative SearchRecorder totals via the engine's merge.
		// idx.Shards() rather than cfg.Shards: a recovered snapshot's
		// shard count is authoritative.
		idx.SetShardObserver(obs.ShardScanObserver(reg, opts.Variant()))
	}

	// Persistence wiring (persist.go): WAL handle, checkpoint cadence,
	// and the §15 metrics, primed with what boot already did.
	if boot != nil {
		s.wal = boot.wal
		s.wal.SetFaultHook(cfg.Faults.Hook(faults.SiteWALWrite))
		s.dataDir = cfg.DataDir
		s.checkpointEvery = cfg.CheckpointEvery
		s.snapLoad = reg.Gauge(obs.MetricSnapshotLoad,
			"Wall time of boot recovery: snapshot read, shard index rebuild and WAL replay (0 when the index was built from the item matrix).")
		s.snapSave = reg.Gauge(obs.MetricSnapshotSave,
			"Wall time of the most recent snapshot checkpoint.")
		s.snapBytes = reg.Gauge(obs.MetricSnapshotBytes,
			"Size of the checkpoint file: the one recovered from at boot, then the most recent one written.")
		s.snapBytes.Set(snapshotBytes(cfg.DataDir))
		s.walRecords = reg.Counter(obs.MetricWALRecords,
			"Acknowledged mutations appended to the write-ahead log.")
		s.walReplays = reg.Counter(obs.MetricWALReplays,
			"WAL records replayed into the index during boot recovery.")
		if boot.loaded {
			s.snapLoad.Set(boot.loadDur.Seconds())
			s.log.Info("recovered from data dir", "dir", cfg.DataDir,
				"snapshotReadMs", boot.readDur.Milliseconds(), "indexRebuildMs", boot.buildDur.Milliseconds(),
				"walReplayMs", boot.walDur.Milliseconds(), "walRecords", boot.replayed)
		} else {
			s.snapSave.Set(boot.saveDur.Seconds())
		}
		s.walReplays.Add(int64(boot.replayed))
	}

	// Guard stack wiring (middleware in guard.go).
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	s.guardSheds = reg.Counter("fexserve_guard_sheds_total",
		"Requests shed with 429 by the concurrency limiter.")
	s.guardTimeouts = reg.Counter("fexserve_guard_timeouts_total",
		"Search scans cancelled by a deadline or injected fault.")
	s.guardPartials = reg.Counter("fexserve_guard_partials_total",
		"Deadline-expired searches answered 200 with partial (inexact) results.")
	s.guardPanics = reg.Counter("fexserve_guard_panics_total",
		"Handler panics recovered into 500 responses.")
	s.inflight = reg.Gauge("fexserve_inflight_requests",
		"Guarded /v1/ requests currently being served.")
	s.readyGauge = reg.Gauge("fexserve_ready",
		"1 when the index is built and the server accepts traffic, else 0.")
	s.SetReady(true) // the index build above succeeded
	return s, nil
}

// Metrics returns the registry the server reports into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the route multiplexer wrapped with the tracing,
// logging, and metrics middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/above", s.handleAbove)
	mux.HandleFunc("POST /v1/items", s.handleAddItem)
	mux.HandleFunc("DELETE /v1/items/", s.handleDeleteItem)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	mux.Handle("GET /metrics", s.metricsHandler())
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Guard ordering (outermost first): observe assigns the trace ID and
	// records metrics/logs for whatever status the inner layers produce;
	// recoverPanics turns panics into 500s (so they are observed);
	// shedLoad rejects excess concurrency before any work; withTimeout
	// arms the per-request deadline last, so shed requests never consume
	// a timer. See DESIGN.md "Robustness".
	return s.observe(s.recoverPanics(s.shedLoad(s.withTimeout(mux))))
}

// reqInfo is observe's per-request record, one allocation reached
// through one context value: the trace ID, the status-capturing writer
// the inner layers write through, and what handlers fill in so the
// middleware can log search-specific fields (k, per-stage counters,
// span-stage timings) without re-plumbing every handler's return path.
type reqInfo struct {
	traceID string
	sw      statusWriter

	k        int
	stats    obs.StageCounters
	hasStats bool

	// Span-stage summary (tracing enabled only).
	hasSpans  bool
	transform time.Duration
	scan      time.Duration
	merge     time.Duration
	rebuild   time.Duration
}

type reqInfoKey struct{}

// reqInfoFrom returns the record observe put in ctx, or nil for a
// context that did not come through it.
func reqInfoFrom(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return info
}

// traceIDFrom returns the request's trace ID ("" outside observe).
func traceIDFrom(ctx context.Context) string {
	if info := reqInfoFrom(ctx); info != nil {
		return info.traceID
	}
	return ""
}

// seriesKey names one fexserve_http_requests_total series; reqSeries is
// that counter with the route's latency histogram.
type seriesKey struct{ method, route, status string }

type reqSeries struct {
	total *obs.Counter
	dur   *obs.Histogram
}

// requestSeries resolves the metric handles of one (method, route,
// status class) through the registry the first time it is seen — label
// normalisation and a string key — and from the server's own map after.
func (s *Server) requestSeries(key seriesKey) reqSeries {
	s.seriesMu.RLock()
	rs, ok := s.series[key]
	s.seriesMu.RUnlock()
	if ok {
		return rs
	}
	rs = reqSeries{
		total: s.reg.Counter("fexserve_http_requests_total",
			"HTTP requests served, by method, route, and status class.",
			obs.L("method", key.method), obs.L("route", key.route), obs.L("status", key.status)),
		dur: s.reg.Histogram("fexserve_http_request_duration_seconds",
			"End-to-end HTTP request latency in seconds.", nil, obs.L("route", key.route)),
	}
	s.seriesMu.Lock()
	s.series[key] = rs
	s.seriesMu.Unlock()
	return rs
}

// statusWriter captures the response status for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// discardHandler is the nil-Config.Logger default: it reports every
// level disabled, so observe builds no attributes and slog renders
// nothing. (slog.DiscardHandler is newer than go.mod's go line.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// observe is the middleware: trace-ID assignment/propagation, request
// metrics, and one structured log line per request when the logger takes
// Info lines.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(traceID) {
			traceID = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, traceID)

		info := &reqInfo{traceID: traceID, sw: statusWriter{ResponseWriter: w}}
		sw := &info.sw
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info)))
		took := time.Since(start)

		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		rs := s.requestSeries(seriesKey{r.Method, routeLabel(r), statusClass(sw.status)})
		rs.total.Inc()
		rs.dur.Observe(took.Seconds())

		if !s.log.Enabled(r.Context(), slog.LevelInfo) {
			return
		}
		attrs := []slog.Attr{
			slog.String("traceId", traceID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("tookMicros", took.Microseconds()),
		}
		if info.hasStats {
			st := info.stats
			attrs = append(attrs,
				slog.Int("k", info.k),
				slog.Group("stages",
					slog.Int("scanned", st.Scanned),
					slog.Int("prunedByLength", st.PrunedByLength),
					slog.Int("prunedByIntHead", st.PrunedByIntHead),
					slog.Int("prunedByIntFull", st.PrunedByIntFull),
					slog.Int("prunedByIncremental", st.PrunedByIncremental),
					slog.Int("prunedByMonotone", st.PrunedByMonotone),
					slog.Int("fullProducts", st.FullProducts),
				),
			)
		}
		if info.hasSpans {
			attrs = append(attrs, slog.Group("spans",
				slog.Int64("transformMicros", info.transform.Microseconds()),
				slog.Int64("scanMicros", info.scan.Microseconds()),
				slog.Int64("mergeMicros", info.merge.Microseconds()),
				slog.Int64("rebuildMicros", info.rebuild.Microseconds()),
			))
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// routeLabel maps the request onto a bounded label set so metric
// cardinality cannot grow with URL contents.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/search":
		return "/v1/search"
	case p == "/v1/above":
		return "/v1/above"
	case p == "/v1/items":
		return "/v1/items"
	case strings.HasPrefix(p, "/v1/items/"):
		return "/v1/items/{id}"
	case p == "/v1/info":
		return "/v1/info"
	case p == "/v1/healthz" || p == "/healthz":
		return "/healthz"
	case p == "/readyz":
		return "/readyz"
	case p == "/metrics":
		return "/metrics"
	case p == "/debug/queries":
		return "/debug/queries"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	}
	return "other"
}

func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	}
	return "5xx"
}

// noteSearch records a completed search into the cumulative metrics,
// the sliding latency window, and the SLO burn counters, and exposes
// its counters to the logging middleware.
func (s *Server) noteSearch(r *http.Request, k int, st search.Stats, took time.Duration) obs.StageCounters {
	sc := obs.StageCountersFrom(st)
	s.rec.RecordSearch(st, took.Seconds())
	s.window.Observe(took.Seconds())
	for i, obj := range s.sloObjs {
		if took > obj {
			s.sloCounters[i].Inc()
		}
	}
	if info := reqInfoFrom(r.Context()); info != nil {
		info.k = k
		info.stats = sc
		info.hasStats = true
	}
	return sc
}

// searchLocked serializes index access around fn, releasing the mutex
// even when an injected fault panics mid-scan (the deferred unlock is
// what keeps a recovered panic from deadlocking every later request),
// and reads the index's counters of the query fn ran while still under
// the lock. The scan-site fault hook is re-read per call so tests can
// Enable or Disable it between requests.
func (s *Server) searchLocked(fn func() ([]topk.Result, error)) ([]topk.Result, search.Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.SetFaultHook(s.cfg.Faults.Hook(faults.SiteScan))
	// fn is always one index scan whose runtime is bounded by the
	// request deadline: the context threaded into it fires ErrDeadline
	// and the scan returns, so the hold time is capped by MaxTimeout.
	//lint:ignore locks fn is a deadline-bounded index scan (DESIGN.md §10)
	res, err := fn()
	return res, s.idx.Stats(), err
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.onGuardedCall(w, r, faults.SiteServerSearch) {
		return
	}
	var req searchRequest
	if !s.decodeVector(w, r, searchKeys, &req) {
		return
	}
	if req.K <= 0 {
		httpError(w, http.StatusBadRequest, "k must be positive, got %d", req.K)
		return
	}
	if req.K > s.MaxK {
		httpError(w, http.StatusBadRequest, "k %d exceeds maximum %d", req.K, s.MaxK)
		return
	}
	r, root := s.traceStart(r, "search")
	start := time.Now()
	results, st, err := s.searchLocked(func() ([]topk.Result, error) {
		return s.idx.SearchContext(r.Context(), req.Vector, req.K)
	})
	took := time.Since(start)
	sc := s.noteSearch(r, req.K, st, took)
	s.traceFinish(r, root, "search", req.K, took, err == nil, &sc)
	if !s.deadlineOK(w, r, err) {
		return
	}
	reply := searchReply{
		results:    results,
		tookMicros: took.Microseconds(),
		traceID:    traceIDFrom(r.Context()),
		stats:      sc,
		exact:      err == nil,
	}
	reply.write(w)
}

func (s *Server) handleAbove(w http.ResponseWriter, r *http.Request) {
	if !s.onGuardedCall(w, r, faults.SiteServerSearch) {
		return
	}
	var req searchRequest
	if !s.decodeVector(w, r, searchKeys, &req) {
		return
	}
	if req.Threshold == nil || isNaNOrInf(*req.Threshold) {
		httpError(w, http.StatusBadRequest, "a finite threshold is required")
		return
	}
	r, root := s.traceStart(r, "above")
	start := time.Now()
	results, st, err := s.searchLocked(func() ([]topk.Result, error) {
		return s.idx.SearchAboveContext(r.Context(), req.Vector, *req.Threshold)
	})
	took := time.Since(start)
	sc := s.noteSearch(r, 0, st, took)
	s.traceFinish(r, root, "above", 0, took, err == nil, &sc)
	if !s.deadlineOK(w, r, err) {
		return
	}
	// Responses stay bounded: a list cut to MaxK is the best MaxK of the
	// answer, not the answer, and says so.
	cut := len(results) > s.MaxK
	if cut {
		results = results[:s.MaxK]
	}
	reply := searchReply{
		results:    results,
		tookMicros: took.Microseconds(),
		traceID:    traceIDFrom(r.Context()),
		stats:      sc,
		exact:      err == nil && !cut,
	}
	reply.write(w)
}

func (s *Server) handleAddItem(w http.ResponseWriter, r *http.Request) {
	if !s.onGuardedCall(w, r, faults.SiteServerMutate) {
		return
	}
	var req searchRequest
	if !s.decodeVector(w, r, itemKeys, &req) {
		return
	}
	if s.reloading.Load() {
		httpErrorCode(w, http.StatusServiceUnavailable, "reloading", "catalog reload in progress; retry shortly")
		return
	}
	r, root := s.traceStart(r, "add")
	start := time.Now()
	s.mu.Lock()
	id, err := s.idx.AddContext(r.Context(), req.Vector)
	var ckptErr error
	if err == nil {
		// Apply-then-log under one lock: the WAL record is written only
		// for mutations that took effect, and the request is acknowledged
		// only after the record is durable (persist.go).
		ckptErr, err = s.logMutationLocked(snap.WALAdd, id, req.Vector)
	}
	n := s.idx.Len()
	s.mu.Unlock()
	if ckptErr != nil {
		s.log.Error("periodic checkpoint failed", "err", ckptErr)
	}
	s.traceFinish(r, root, "add", 0, time.Since(start), err == nil, nil)
	if err != nil {
		// A failed rebuild (core.ErrRebuild) is the stored catalog's
		// fault, not this vector's, and stays a 500.
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrNotFinite) {
			status = http.StatusBadRequest // finite coordinates, overflowing norm
		}
		httpError(w, status, "add failed: %v", err)
		return
	}
	s.adds.Inc()
	s.items.Set(float64(n))
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]int{"id": id})
}

func (s *Server) handleDeleteItem(w http.ResponseWriter, r *http.Request) {
	if !s.onGuardedCall(w, r, faults.SiteServerMutate) {
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/items/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad item id %q", idStr)
		return
	}
	if s.reloading.Load() {
		httpErrorCode(w, http.StatusServiceUnavailable, "reloading", "catalog reload in progress; retry shortly")
		return
	}
	r, root := s.traceStart(r, "delete")
	start := time.Now()
	s.mu.Lock()
	err = s.idx.DeleteContext(r.Context(), id)
	var walErr, ckptErr error
	if err == nil {
		ckptErr, walErr = s.logMutationLocked(snap.WALDelete, id, nil)
	}
	n := s.idx.Len()
	s.mu.Unlock()
	if ckptErr != nil {
		s.log.Error("periodic checkpoint failed", "err", ckptErr)
	}
	s.traceFinish(r, root, "delete", 0, time.Since(start), err == nil && walErr == nil, nil)
	if errors.Is(err, core.ErrRebuild) {
		httpError(w, http.StatusInternalServerError, "delete failed: %v", err)
		return
	}
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	if walErr != nil {
		httpError(w, http.StatusInternalServerError, "delete failed: %v", walErr)
		return
	}
	s.deletes.Inc()
	s.items.Set(float64(n))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := s.idx.Len()
	s.mu.Unlock()
	writeJSON(w, map[string]any{"items": n, "dim": s.dim, "shards": s.idx.Shards()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent; nothing recoverable remains.
		return
	}
}

// errorResponse is the JSON body of every non-2xx answer: a
// human-readable message, a stable machine-readable code, and the
// request's trace ID for log correlation.
type errorResponse struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	TraceID string `json:"traceId,omitempty"`
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	httpErrorCode(w, status, defaultErrorCode(status), format, args...)
}

func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Best-effort: the status code is already on the wire. The trace ID
	// header was set by the observe middleware before any handler ran.
	_ = json.NewEncoder(w).Encode(errorResponse{
		Error:   fmt.Sprintf(format, args...),
		Code:    code,
		TraceID: w.Header().Get(obs.TraceHeader),
	})
}

func defaultErrorCode(status int) string {
	switch {
	case status == http.StatusBadRequest:
		return "bad_request"
	case status == http.StatusNotFound:
		return "not_found"
	case status == http.StatusRequestEntityTooLarge:
		return "too_large"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status == http.StatusGatewayTimeout:
		return "deadline"
	case status >= 500:
		return "internal"
	}
	return "error"
}

func isNaNOrInf(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0)
}
