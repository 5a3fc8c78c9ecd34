package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRuns reads the comma-separated report files of one side.
func loadRuns(list string) ([]record, error) {
	var runs []record
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, rep.Runs...)
	}
	return runs, nil
}

func diffFiles(oldList, newList string, stdout, stderr io.Writer) int {
	old, err := loadRuns(oldList)
	if err == nil {
		var cur []record
		if cur, err = loadRuns(newList); err == nil {
			return diffRuns(old, cur, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 1
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// does, which is how the spread of a set of runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of their median
// (0 with fewer than two readings).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// values groups one side's readings by workload, then metric.
func values(runs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// judge gives the verdict of one workload × metric row.
//
//	ok          the new median is no worse than the old by more than bound
//	regressed   it is
//	unresolved  within the bound, but a side's own spread exceeds the
//	            bound and the new runs do not all beat the old ones
//	drift       a count that must repeat exactly did not
//	-           a per-layer timing: shown, never judged
func judge(name string, old, cur []float64) string {
	for _, d := range perLayer {
		if d.name != name {
			continue
		}
		if !d.exact {
			return "-"
		}
		for _, v := range append(append([]float64(nil), old...), cur...) {
			if math.Float64bits(v) != math.Float64bits(old[0]) {
				return "drift"
			}
		}
		return "ok"
	}
	for _, d := range endToEnd {
		if d.name != name {
			continue
		}
		sign := 1.0
		if d.higherIsBetter {
			sign = -1
		}
		if sign*(median(cur)-median(old))/median(old) > d.bound {
			return "regressed"
		}
		if math.Max(spread(old), spread(cur)) <= d.bound {
			return "ok"
		}
		for _, o := range old {
			for _, c := range cur {
				if sign*(c-o) >= 0 {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	return "-"
}

// diffRuns prints one row per workload × metric present on both sides
// and returns 1 when any row regressed or drifted.
func diffRuns(old, cur []record, stdout io.Writer) int {
	oldV, curV := values(old), values(cur)
	units := map[string]string{}
	for _, r := range old {
		for name, v := range r.Metrics {
			units[name] = v.Unit
		}
	}
	status := 0
	fmt.Fprintf(stdout, "%-12s %-30s %14s %14s %-5s %9s %7s  %s\n",
		"workload", "metric", "old", "new", "unit", "new/old", "spread", "verdict")
	for _, w := range workloads {
		names := make([]string, 0, len(oldV[w.name]))
		for name := range oldV[w.name] {
			if len(curV[w.name][name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			o, c := oldV[w.name][name], curV[w.name][name]
			verdict := judge(name, o, c)
			if verdict == "regressed" || verdict == "drift" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-12s %-30s %14.4f %14.4f %-5s %9.4f %6.1f%%  %s\n",
				w.name, name, median(o), median(c), units[name],
				median(c)/median(o), 100*math.Max(spread(o), spread(c)), verdict)
		}
	}
	return status
}

// selfDiff measures the benchmark's own noise: n end-to-end runs per
// side of the same code, sides alternating which goes first, judged by
// the same rule as a real comparison. Both reports land in out/.
func selfDiff(selected []workload, cfg config, n int, stdout, stderr io.Writer) int {
	var sides [2]report
	for i := 0; i < 2*n; i++ {
		side := (i + i/2) % 2 // A B B A A B B A …
		for _, w := range selected {
			rec, err := endToEndRecord(w, cfg, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			sides[side].Runs = append(sides[side].Runs, *rec)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for i, name := range []string{"aa-a.json", "aa-b.json"} {
		if err := writeJSON(filepath.Join(outDir, name), sides[i]); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return diffRuns(sides[0].Runs, sides[1].Runs, stdout)
}
