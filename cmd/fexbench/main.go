// Command fexbench regenerates the paper's tables and figures over the
// calibrated synthetic datasets.
//
// Usage:
//
//	fexbench -exp table4                 # one experiment, default sizes
//	fexbench -exp all                    # the full evaluation suite
//	fexbench -exp fig8,fig9 -profiles movielens,netflix
//	fexbench -exp table4 -items 5000 -queries 50   # quick smoke run
//	fexbench -statsjson -profiles netflix -k 10    # per-stage counters as JSON
//	fexbench -statsjson -shards 8 -workers 4       # sharded execution engine
//
// -statsjson dumps the cumulative per-pruning-stage counters in the
// same schema fexserve exposes at /metrics and in its /v1/search
// responses, so offline benchmark numbers and online telemetry are
// directly comparable. With -shards > 1 each method's index is
// partitioned and every query is answered in parallel through the
// sharded execution engine (DESIGN.md §11) — results and counters stay
// exact, and the dump records the shard/worker configuration.
//
// Default sizes follow Table 2 of the paper (Yahoo scaled to 100k items)
// with 200 sampled queries per dataset; expect minutes per experiment at
// full size on one core.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fexipro/internal/experiments"
	"fexipro/internal/method"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (table3..table8, fig6..fig20), comma-separated, or 'all'")
		profiles = flag.String("profiles", "", "comma-separated dataset profiles (default: all four)")
		items    = flag.Int("items", 0, "override item count per dataset (0 = profile default)")
		queries  = flag.Int("queries", 0, "override query count (0 = profile default of 200)")
		dim      = flag.Int("dim", 0, "override dimensionality d (0 = profile default of 50)")
		list     = flag.Bool("list", false, "list available experiments and exit")
		statsOut = flag.Bool("statsjson", false, "dump per-stage pruning counters as JSON (same schema as fexserve telemetry)")
		methods  = flag.String("methods", "", "comma-separated methods for -statsjson, any of "+strings.Join(method.Names(), ", ")+" (default: all of Table 4)")
		k        = flag.Int("k", 1, "top-k for -statsjson")
		shards   = flag.Int("shards", 0, "partition each method's index into this many shards answered in parallel per query; results stay exact (0/1 = sequential scan)")
		workers  = flag.Int("workers", 0, "per-query goroutine pool for -shards > 1 (0 = GOMAXPROCS, clamped to -shards)")
	)
	flag.Parse()

	if *statsOut {
		cfg := experiments.Config{Items: *items, Queries: *queries, Dim: *dim,
			Shards: *shards, SearchWorkers: *workers}
		if *profiles != "" {
			cfg.Profiles = strings.Split(*profiles, ",")
		}
		var ms []string
		if *methods != "" {
			for _, m := range strings.Split(*methods, ",") {
				ms = append(ms, strings.TrimSpace(m))
			}
		}
		out, err := experiments.StatsJSON(cfg, ms, *k)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fexbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		reg := experiments.Registry()
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-8s %s\n", id, reg[id].Description)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nerror: -exp is required (or -list)")
			os.Exit(2)
		}
		return
	}

	cfg := experiments.Config{Items: *items, Queries: *queries, Dim: *dim}
	if *profiles != "" {
		cfg.Profiles = strings.Split(*profiles, ",")
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		out, err := experiments.RunByID(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fexbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}
