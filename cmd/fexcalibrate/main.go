// Command fexcalibrate is a development tool: it sweeps the synthetic
// dataset generator's parameters (norm skew, spectral decay) and reports
// the pruning-power and retrieval-time profile of each combination, so
// the dataset profiles in internal/data can be tuned to reproduce the
// SHAPE of the paper's Tables 3/4 (who wins, by roughly what factor).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fexipro/internal/data"
	"fexipro/internal/experiments"
	"fexipro/internal/method"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fexcalibrate: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		items   = flag.Int("items", 20000, "item count")
		queries = flag.Int("queries", 50, "query count")
		base    = flag.String("profile", "movielens", "base profile")
		k       = flag.Int("k", 1, "results per query")
		seed    = flag.Int64("seed", 0, "dataset RNG seed (0 = profile default)")
		methods = flag.String("methods", "", "comma-separated methods (default: Naive + every pruning method)")
	)
	flag.Parse()

	prof, err := data.ProfileByName(*base)
	if err != nil {
		return err
	}
	if *seed != 0 {
		prof.Seed = *seed
	}
	names, err := methodList(*methods)
	if err != nil {
		return err
	}
	return sweep(prof, names, *items, *queries, *k)
}

// methodList resolves the -methods flag against the registry; the
// default pool is Naive (the floor every pruning method is measured
// against) plus the registry's pruning-capable methods.
func methodList(csv string) ([]string, error) {
	if csv == "" {
		return append([]string{"Naive"}, method.PruningNames()...), nil
	}
	var names []string
	for _, raw := range strings.Split(csv, ",") {
		d, err := method.Get(strings.TrimSpace(raw))
		if err != nil {
			return nil, err
		}
		names = append(names, d.Name)
	}
	return names, nil
}

// sweep prints the pruning-power and latency profile of each (norm
// sigma, spectral decay) combination for every requested method.
func sweep(prof data.Profile, names []string, items, queries, k int) error {
	var b strings.Builder
	b.WriteString("sigma  decay  |")
	for _, m := range names {
		fmt.Fprintf(&b, " %9s", "n("+m+")")
	}
	b.WriteString(" |")
	for _, m := range names {
		fmt.Fprintf(&b, " %9s", "t("+m+")")
	}
	fmt.Println(b.String() + " ms")
	for _, sigma := range []float64{0.15, 0.25, 0.35, 0.5} {
		for _, decay := range []float64{0.02, 0.05, 0.08, 0.12} {
			p := prof
			p.NormSigma = sigma
			p.SpectralDecay = decay
			ds := data.Generate(p, items, queries, 0)
			var row strings.Builder
			fmt.Fprintf(&row, "%.2f   %.2f   |", sigma, decay)
			var times []float64
			for _, m := range names {
				res, err := experiments.RunMethod(m, ds, k, false)
				if err != nil {
					return err
				}
				fmt.Fprintf(&row, " %9.1f", res.AvgFullIP)
				times = append(times, res.Retrieve.Seconds()*1e3)
			}
			row.WriteString(" |")
			for _, t := range times {
				fmt.Fprintf(&row, " %9.2f", t)
			}
			fmt.Println(row.String())
		}
	}
	return nil
}
