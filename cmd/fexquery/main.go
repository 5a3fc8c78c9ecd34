// Command fexquery serves top-k inner-product queries over a factor file
// produced by fexgen (or any FXP1 matrix).
//
// Usage:
//
//	fexquery -items data/items.fxp -queries data/queries.fxp -k 10
//	fexquery -items data/items.fxp -k 5 -method ssl   # baseline comparison
//	echo "0.1,0.2,..." | fexquery -items data/items.fxp -stdin
//
// For each query it prints one line: the query index followed by
// "item:score" pairs in descending score order.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"fexipro"
)

func main() {
	var (
		itemsPath   = flag.String("items", "", "FXP1 item factor file (required)")
		queriesPath = flag.String("queries", "", "FXP1 query file (optional)")
		useStdin    = flag.Bool("stdin", false, "read comma-separated query vectors from stdin")
		k           = flag.Int("k", 10, "number of results per query")
		method      = flag.String("method", "fexipro",
			"fexipro, or any registered method: "+strings.Join(fexipro.Methods(), ", "))
		variant   = flag.String("variant", "F-SIR", "FEXIPRO variant when -method=fexipro")
		showStats = flag.Bool("stats", false, "print pruning statistics per query")
	)
	flag.Parse()

	if *itemsPath == "" {
		fmt.Fprintln(os.Stderr, "fexquery: -items is required")
		os.Exit(2)
	}
	items, err := fexipro.LoadMatrix(*itemsPath)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	var searcher fexipro.Searcher
	// "fexipro" is a dispatch mode, not a registry method: it parses
	// -variant. Everything else resolves through the method registry
	// (names are case-insensitive; aliases like "ssl" or "scan" work).
	if strings.EqualFold(*method, "fexipro") {
		searcher, err = fexipro.New(items, fexipro.Options{Variant: *variant})
	} else {
		searcher, err = fexipro.NewMethod(*method, items, fexipro.MethodOptions{})
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "indexed %d items (d=%d) with %s in %.3fs\n",
		items.Rows(), items.Cols(), *method, time.Since(start).Seconds())

	answer := func(qi int, q []float64) {
		qStart := time.Now()
		res := searcher.Search(q, *k)
		var b strings.Builder
		fmt.Fprintf(&b, "query %d:", qi)
		for _, r := range res {
			fmt.Fprintf(&b, " %d:%.6g", r.ID, r.Score)
		}
		fmt.Println(b.String())
		if *showStats {
			st := searcher.LastStats()
			fmt.Fprintf(os.Stderr, "  %.1fµs scanned=%d pruned=%d full=%d\n",
				float64(time.Since(qStart).Microseconds()), st.Scanned, st.Pruned, st.FullProducts)
		}
	}

	switch {
	case *queriesPath != "":
		queries, err := fexipro.LoadMatrix(*queriesPath)
		if err != nil {
			fatal(err)
		}
		if queries.Cols() != items.Cols() {
			fatal(fmt.Errorf("query dim %d != item dim %d", queries.Cols(), items.Cols()))
		}
		for i := 0; i < queries.Rows(); i++ {
			answer(i, queries.Row(i))
		}
	case *useStdin:
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		qi := 0
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			fields := strings.Split(line, ",")
			if len(fields) != items.Cols() {
				fatal(fmt.Errorf("query %d has %d values, want %d", qi, len(fields), items.Cols()))
			}
			q := make([]float64, len(fields))
			for j, f := range fields {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					fatal(fmt.Errorf("query %d field %d: %v", qi, j, err))
				}
				q[j] = v
			}
			answer(qi, q)
			qi++
		}
		if err := sc.Err(); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "fexquery: provide -queries FILE or -stdin")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fexquery: %v\n", err)
	os.Exit(1)
}
