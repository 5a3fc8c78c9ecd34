// Command fexload is an open-loop traffic generator for fexserve.
//
// Usage:
//
//	fexload -target http://localhost:8080 -dim 50 -rate 500 -duration 30s
//	fexload -items 5000 -dim 16 -rate 300 -duration 10s -slojson run.json
//	fexload -target http://host:8080 -dim 50 -mutate-every 20 \
//	        -burst-every 10s -burst-dur 2s -burst-factor 4
//
// With -target, fexload drives an already-running server. Without it,
// fexload starts an in-process fexserve over a synthetic normal
// catalog (-items × -dim, seeded by -seed) on a loopback port and
// drives that — a self-contained smoke mode for CI.
//
// The workload is open-loop: arrivals are scheduled purely from -rate
// (times -burst-factor during burst phases), never from completions,
// so server slowness shows up as client-side latency and shed arrivals
// rather than silently reducing the offered load. Queries draw a user
// ID from a zipfian distribution over -users synthetic users; each
// user's query vector is derived deterministically from -seed, so runs
// replay query-for-query. -mutate-every N turns every Nth arrival into
// a catalog mutation (alternating adds and deletes of its own items).
//
// -slojson writes the run report in the fexload/v1 schema ("-" for
// stdout): sent/completed/shed counts, status classes, exact latency
// quantiles in milliseconds, and per-objective SLO burn — field-style
// compatible with the fexbench -statsjson dumps, so the same tooling
// can diff offline benchmark and load-test runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/load"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

func main() {
	var (
		target   = flag.String("target", "", "base URL of a running fexserve (empty = start an in-process synthetic server)")
		items    = flag.Int("items", 2000, "synthetic catalog size for the in-process server (ignored with -target)")
		dim      = flag.Int("dim", 16, "query dimensionality; must match the target index")
		variant  = flag.String("variant", "F-SIR", "FEXIPRO variant for the in-process server, one of "+core.VariantNames+" (ignored with -target)")
		shards   = flag.Int("shards", 1, "catalog shards for the in-process server (ignored with -target)")
		rate     = flag.Float64("rate", 100, "offered arrivals per second (open loop)")
		duration = flag.Duration("duration", 5*time.Second, "how long to generate arrivals")
		users    = flag.Int("users", 1_000_000, "synthetic user population; query popularity over it is zipfian")
		zipfS    = flag.Float64("zipf-s", 1.2, "zipf skew exponent (> 1; larger = hotter head)")
		k        = flag.Int("k", 10, "top-k per search")

		mutateEvery = flag.Int("mutate-every", 0, "every Nth arrival is a catalog mutation, alternating add/delete (0 = search-only)")
		burstEvery  = flag.Duration("burst-every", 0, "burst phase period (0 = steady rate)")
		burstDur    = flag.Duration("burst-dur", 0, "burst phase length within each period (default period/5)")
		burstFactor = flag.Float64("burst-factor", 4, "rate multiplier during burst phases")

		maxInFlight = flag.Int("max-inflight", 1024, "client-side cap on outstanding requests; arrivals beyond it are counted shed, not retried")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-request client timeout")
		sloSpec     = flag.String("slo", "", "comma-separated client-side latency objectives, e.g. 5ms,25ms,100ms (empty = 10ms,50ms,250ms)")
		seed        = flag.Int64("seed", 1, "run seed: arrival mix, zipf draws, and query vectors all derive from it")
		slojson     = flag.String("slojson", "", "write the fexload/v1 report to this path (\"-\" = stdout)")
	)
	flag.Parse()

	slos, err := parseSLOs(*sloSpec)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	base := *target
	shutdown := func() {}
	if base == "" {
		base, shutdown, err = startInProcess(*items, *dim, *variant, *shards, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fexload: in-process fexserve at %s (%d items, dim %d, %s, %d shard(s))\n",
			base, *items, *dim, *variant, *shards)
	}

	rep, err := load.Run(ctx, load.Config{
		Target:      strings.TrimRight(base, "/"),
		Dim:         *dim,
		Rate:        *rate,
		Duration:    *duration,
		Users:       *users,
		ZipfS:       *zipfS,
		K:           *k,
		MutateEvery: *mutateEvery,
		BurstEvery:  *burstEvery,
		BurstDur:    *burstDur,
		BurstFactor: *burstFactor,
		MaxInFlight: *maxInFlight,
		Timeout:     *timeout,
		SLOs:        slos,
		Seed:        *seed,
	})
	// The run is over: join the in-process server before any reporting,
	// so the -slojson file is written only once every goroutine this
	// process started has finished (load.Run joins its own senders).
	shutdown()
	if err != nil {
		fatal(err)
	}
	if err := rep.Validate(); err != nil {
		fatal(fmt.Errorf("internal: report failed validation: %w", err))
	}

	fmt.Fprintf(os.Stderr,
		"fexload: sent %d (shed %d) completed %d in %.1fs — %.1f qps, p50 %.2fms p99 %.2fms max %.2fms\n",
		rep.Sent, rep.Shed, rep.Completed, rep.ElapsedMs/1e3, rep.AchievedQPS,
		rep.LatencyMs.P50, rep.LatencyMs.P99, rep.LatencyMs.Max)
	for _, s := range rep.SLOs {
		fmt.Fprintf(os.Stderr, "fexload: SLO %s: %d violations (burn %.4f)\n", s.Objective, s.Violations, s.BurnRate)
	}

	if *slojson != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		raw = append(raw, '\n')
		if *slojson == "-" {
			_, err = os.Stdout.Write(raw)
		} else {
			err = os.WriteFile(*slojson, raw, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
}

// startInProcess builds a synthetic catalog, serves it on a loopback
// port, and returns the base URL plus a shutdown func.
func startInProcess(items, dim int, variant string, shards int, seed int64) (string, func(), error) {
	if dim <= 0 {
		return "", nil, errors.New("in-process mode needs -dim > 0")
	}
	opts, err := core.OptionsForVariant(variant)
	if err != nil {
		return "", nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(items, dim)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	srv, err := server.NewWithConfig(m, opts, server.Config{Shards: shards})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
			// Join the Serve goroutine: Shutdown returning only means
			// listeners are closed and conns drained; Serve's return is
			// the goroutine's actual exit edge.
			<-served
		})
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fexload: %v\n", err)
	os.Exit(1)
}
