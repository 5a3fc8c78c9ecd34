// Command fexserve exposes a FEXIPRO index over HTTP.
//
// Usage:
//
//	fexserve -items data/items.fxp -addr :8080
//	fexserve -dim 50 -addr :8080          # start with an empty catalog
//	fexserve -dim 50 -log-format json -pprof
//	fexserve -items data/items.fxp -shards 8 -search-workers 4
//	fexserve -dim 50 -data-dir /var/lib/fexipro -checkpoint-every 1000
//
// API (JSON):
//
//	POST   /v1/search   {"vector": [...], "k": 10}
//	POST   /v1/above    {"vector": [...], "threshold": 3.5}
//	POST   /v1/items    {"vector": [...]}            → 201 {"id": n}
//	DELETE /v1/items/{id}
//	GET    /v1/info     → {"items": n, "dim": d, "shards": s, "kernel": body}
//	GET    /healthz     liveness (also at /v1/healthz)
//	GET    /readyz      readiness: 200 once the index is built, 503
//	                    while draining for shutdown
//	GET    /metrics     Prometheus text format (per-stage pruning
//	                    counters, latency histograms, windowed latency
//	                    quantiles, SLO burn counters, build/mutation
//	                    and guard metrics)
//	GET    /debug/queries  slow-query log: span trees of recent traced
//	                    queries (only meaningful with -trace)
//	GET    /debug/pprof/  (only with -pprof)
//
// Tracing: -trace attaches a span tree to every /v1/ request —
// transform, per-shard scans (queue wait, steal provenance, stage
// counters), merge, and any mutation-triggered shard rebuild — logged
// as a per-stage summary and retained in a fixed-size ring served at
// GET /debug/queries. -slow-query-ms keeps only queries at least that
// slow; -trace-ring sizes the ring. -slo sets the latency objectives
// whose violations fexserve_slo_violations_total counts, and the
// fexipro_search_latency_window_seconds gauges expose p50/p95/p99/p999
// over the trailing ~1 minute (DESIGN.md §13).
//
// Serving guards: -timeout sets the default per-request deadline
// (clients override with the X-Timeout-Ms header, clamped to
// -max-timeout); an expired deadline answers 504 {"code":"deadline"},
// or — with -partial — 200 with the best-so-far results and
// "exact": false. -max-concurrent sheds excess load with 429 and
// Retry-After. -max-k caps the per-request k to bound response sizes.
// Panics are recovered into 500s carrying the trace ID.
//
// Sharding: -shards N splits the catalog into N independent shards
// (stable mapping id mod N), so a single add or delete only rebuilds
// the owning shard, and each query fans out across the shards through
// a pool of -search-workers goroutines before merging into the exact
// global top-k (DESIGN.md §11). Per-shard scan wall time is exported
// as fexipro_shard_scan_seconds, labeled by shard index.
//
// Persistence: -data-dir enables the fexsnap/v1 snapshot + WAL pipeline
// (DESIGN.md §15). Boot reads the catalog and shard layout from
// <dir>/current.snap, rebuilds the indexes from them and replays
// <dir>/dyn.wal — fexipro_snapshot_load_seconds on /metrics is the three
// together, fexipro_snapshot_bytes the file — and every acknowledged
// mutation is appended to the WAL before the HTTP response is sent.
// -checkpoint-every N snapshots and truncates the WAL every N
// mutations; SIGTERM always checkpoints after draining, so a restart
// replays nothing and loses nothing. -wal-sync-every batches WAL syncs.
// SIGHUP reloads the -items factor file: the replacement index builds
// in the background while searches keep answering, then swaps in and is
// checkpointed — readers wait for that write, ≈ 0.1 s at 10⁵ items and
// d = 50 (mutations are answered 503 "reloading" during the build).
//
// Every request is logged as one structured line (text or JSON via
// -log-format) with a trace ID, latency, and search stage counters.
// SIGINT/SIGTERM flip /readyz to 503, drain in-flight requests, and log
// a final cumulative metrics snapshot before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/data"
	"fexipro/internal/obs"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

// shutdownTimeout bounds the in-flight request drain on SIGINT/SIGTERM.
const shutdownTimeout = 10 * time.Second

func main() {
	var (
		itemsPath   = flag.String("items", "", "FXP1 item factor file (optional if -dim given)")
		dim         = flag.Int("dim", 0, "dimension for an empty starting catalog")
		addr        = flag.String("addr", ":8080", "listen address")
		variant     = flag.String("variant", "F-SIR", "FEXIPRO variant: "+core.VariantNames)
		logFormat   = flag.String("log-format", "text", "structured log format: text|json")
		enablePprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		shards        = flag.Int("shards", 1, "catalog shards: >1 rebuilds only the owning shard per mutation and answers each query in parallel across shards (DESIGN.md §11)")
		searchWorkers = flag.Int("search-workers", 0, "per-query goroutine pool when -shards > 1 (0 = GOMAXPROCS, clamped to -shards)")

		timeout       = flag.Duration("timeout", 5*time.Second, "default per-request deadline for /v1/ routes (0 disables)")
		maxTimeout    = flag.Duration("max-timeout", 30*time.Second, "cap on the effective per-request deadline, including X-Timeout-Ms overrides (0 = uncapped)")
		maxConcurrent = flag.Int("max-concurrent", 64, "in-flight /v1/ request limit; excess is shed with 429 (0 disables)")
		partial       = flag.Bool("partial", false, "answer deadline expiry with 200 + best-so-far results flagged exact:false instead of 504")
		maxK          = flag.Int("max-k", 0, "cap on per-request k to bound response sizes (0 = server default, 1000)")

		dataDir         = flag.String("data-dir", "", "persistence directory (DESIGN.md §15): boot recovers the acknowledged catalog from current.snap + dyn.wal and rebuilds the index from it (-items only seeds an empty directory), every acknowledged mutation is write-ahead logged, SIGTERM checkpoints before exit")
		checkpointEvery = flag.Int("checkpoint-every", 0, "with -data-dir, write a fresh snapshot and truncate the WAL after this many acknowledged mutations (0 = only on shutdown/reload)")
		walSyncEvery    = flag.Int("wal-sync-every", 1, "with -data-dir, sync the WAL (fdatasync) every Nth append; >1 trades a bounded crash-loss window for mutation throughput")

		trace       = flag.Bool("trace", false, "collect a per-query span tree (transform, per-shard scans, merge, rebuilds) for every /v1/ request, served at GET /debug/queries (DESIGN.md §13)")
		slowQueryMs = flag.Float64("slow-query-ms", 0, "with -trace, only queries at least this slow enter the /debug/queries ring (0 records every traced query)")
		traceRing   = flag.Int("trace-ring", 0, "capacity of the /debug/queries slow-query ring (0 = server default, 128)")
		sloSpec     = flag.String("slo", "", "comma-separated latency objectives burned into fexserve_slo_violations_total, e.g. 5ms,25ms,100ms (empty = server defaults 10ms,50ms,250ms)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fexserve: %v\n", err)
		os.Exit(2)
	}

	var items *vec.Matrix
	switch {
	case *itemsPath != "":
		m, err := data.LoadMatrix(*itemsPath)
		if err != nil {
			fatal(logger, "load items", err)
		}
		items = m
	case *dim > 0:
		items = vec.NewMatrix(0, *dim)
	default:
		fatal(logger, "usage", errors.New("provide -items FILE or -dim N"))
	}

	opts, err := core.OptionsForVariant(*variant)
	if err != nil {
		fatal(logger, "variant", err)
	}

	slos, err := parseSLOs(*sloSpec)
	if err != nil {
		fatal(logger, "slo", err)
	}

	reg := obs.NewRegistry()
	buildStart := time.Now()
	srv, err := server.NewWithConfig(items, opts, server.Config{
		Metrics:           reg,
		Logger:            logger,
		EnablePprof:       *enablePprof,
		RequestTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		MaxConcurrent:     *maxConcurrent,
		PartialOnDeadline: *partial,
		MaxK:              *maxK,
		Shards:            *shards,
		SearchWorkers:     *searchWorkers,
		DataDir:           *dataDir,
		CheckpointEvery:   *checkpointEvery,
		WALSyncEvery:      *walSyncEvery,
		Trace:             *trace,
		SlowQuery:         time.Duration(*slowQueryMs * float64(time.Millisecond)),
		TraceRingSize:     *traceRing,
		SLOs:              slos,
	})
	if err != nil {
		fatal(logger, "index build", err)
	}
	buildDur := time.Since(buildStart)
	reg.Gauge("fexserve_index_build_seconds",
		"Wall time of the initial index build (preprocessing, Algorithm 3).").Set(buildDur.Seconds())
	reg.Gauge("fexserve_index_dim", "Latent dimensionality d of the index.").Set(float64(items.Cols))
	reg.Gauge("fexserve_start_time_seconds",
		"Unix time the process finished startup.").Set(float64(time.Now().Unix()))

	logger.Info("startup",
		"items", items.Rows, "dim", items.Cols, "variant", opts.Variant(),
		"buildMillis", buildDur.Milliseconds(), "addr", *addr,
		"shards", *shards, "searchWorkers", *searchWorkers,
		"pprof", *enablePprof,
		"timeout", timeout.String(), "maxTimeout", maxTimeout.String(),
		"maxConcurrent", *maxConcurrent, "partialOnDeadline", *partial,
		"trace", *trace, "slowQueryMs", *slowQueryMs,
		"kernel", vec.Selected().String())

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Listen before starting the signal loop so the bound address — which
	// differs from -addr when the port is 0 — is in the log for clients
	// (the restart e2e test starts on :0 and scrapes this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen", err)
	}
	logger.Info("listening", "addr", ln.Addr().String())

	// Signal loop: SIGHUP reloads the item catalog from -items with zero
	// read downtime (the replacement index builds in the background and
	// swaps atomically); SIGINT/SIGTERM flip /readyz to 503, drain
	// in-flight requests, then checkpoint and close the WAL so no
	// acknowledged mutation outlives the process un-persisted.
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
		for got := range sig {
			if got == syscall.SIGHUP {
				if *itemsPath == "" {
					logger.Warn("reload requested but no -items file to reload from")
					continue
				}
				go func() {
					m, err := data.LoadMatrix(*itemsPath)
					if err != nil {
						logger.Error("reload load failed", "err", err)
						return
					}
					start := time.Now()
					if err := srv.Reload(m, opts); err != nil {
						logger.Error("reload failed", "err", err)
						return
					}
					logger.Info("reload complete", "items", m.Rows,
						"buildMillis", time.Since(start).Milliseconds())
				}()
				continue
			}
			logger.Info("shutdown", "signal", got.String(), "drainTimeout", shutdownTimeout.String())
			srv.SetReady(false) // /readyz → 503 so load balancers stop routing here
			ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
			if err := httpSrv.Shutdown(ctx); err != nil {
				logger.Error("shutdown drain failed", "err", err)
			}
			cancel()
			if *dataDir != "" {
				if err := srv.Checkpoint(); err != nil {
					logger.Error("shutdown checkpoint failed", "err", err)
				}
				if err := srv.ClosePersistence(); err != nil {
					logger.Error("wal close failed", "err", err)
				}
			}
			break
		}
		close(idle)
	}()

	err = httpSrv.Serve(ln)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(logger, "serve", err)
	}
	<-idle
	logFinalSnapshot(logger, reg)
}

// parseSLOs parses a comma-separated list of Go durations into latency
// objectives. Empty input returns nil (server defaults).
func parseSLOs(spec string) ([]time.Duration, error) {
	if spec == "" {
		return nil, nil
	}
	var out []time.Duration
	for _, part := range strings.Split(spec, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -slo entry %q: %w", part, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("bad -slo entry %q: objectives must be positive", part)
		}
		out = append(out, d)
	}
	return out, nil
}

// newLogger builds the process logger in the requested format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// logFinalSnapshot emits the cumulative metric state as the last lines
// of the process, so a terminated deployment still leaves its totals in
// the log stream.
func logFinalSnapshot(logger *slog.Logger, reg *obs.Registry) {
	snap := reg.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	attrs := make([]any, 0, 2*len(keys))
	for _, k := range keys {
		attrs = append(attrs, k, snap[k])
	}
	logger.Info("final metrics snapshot", attrs...)
}

func fatal(logger *slog.Logger, stage string, err error) {
	logger.Error("fatal", "stage", stage, "err", err)
	os.Exit(1)
}
