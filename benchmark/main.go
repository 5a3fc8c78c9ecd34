// Command benchmark is the repository's performance benchmark: four
// named workloads at paper scale (n = 10⁵, d = 50, k = 10, F-SIR), each
// checked against a naive oracle and reported as five end-to-end
// metrics, plus a traced run that attributes time to the layers
// vec → core → engine → server → snap. See README.md beside this file.
//
//	go run ./benchmark                                  all workloads, end to end
//	go run ./benchmark -workload lib-flat -trace 1      one workload, per layer
//	go run ./benchmark -diff old.json new.json          compare two -out reports
//	go run ./benchmark -aa 5                            measure run-to-run noise
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json declares the same
// names and units; the smoke test holds the two together.
type metricDef struct {
	name, unit string
	// exact marks a count that must repeat between runs of the same
	// code and seed; -diff fails on any drift.
	exact bool
}

// endToEnd is reported by every untraced run. bound is the share by
// which the median of a set of runs may worsen before -diff calls it a
// regression. The timings share the widest bound the driver allows:
// on a quiet hour ten seeds spread by at most 7 %, but this shared host
// slows whole runs by 20–40 % for minutes at a time (README.md).
var endToEnd = []struct {
	metricDef
	higherIsBetter bool
	bound          float64
}{
	{metricDef{name: "setup_s", unit: "s"}, false, 0.25},
	{metricDef{name: "index_mib", unit: "MiB"}, false, 0.01},
	{metricDef{name: "query_p50_us", unit: "us"}, false, 0.25},
	{metricDef{name: "query_p95_us", unit: "us"}, false, 0.25},
	{metricDef{name: "throughput_per_s", unit: "1/s"}, true, 0.25},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of a run's standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run in a report file: the outcome plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Rounds   int    `json:"rounds,omitempty"`
	outcome
}

// report is what -out writes and -diff reads.
type report struct {
	Runs []record `json:"runs"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one parsed command line.
type options struct {
	workload string // a workload name, or "all"
	cfg      config
	trace    bool
	out      string // report file to write, if any
	aa       int    // > 0: self-diff with that many runs per side
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "input seed: items, queries, the add pool and the delete choices all derive from it")
		seconds = fs.Float64("seconds", 30, "measuring budget per workload; rounds repeat until the next would not fit")
		trace   = fs.Int("trace", 0, "1 runs the traced round and prints the per-layer metrics instead of the end-to-end ones")
		out     = fs.String("out", "", "also write the runs as a report file that -diff reads")
		diff    = fs.Bool("diff", false, "compare two reports: -diff old.json new.json (comma-separate several files per side)")
		aa      = fs.Int("aa", 0, "run the end-to-end set N times per side, alternating sides, and diff the code against itself")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// out/ and the data dirs are resolved from the working directory.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "benchmark: run it from the repository root, as go run ./benchmark:", err)
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintf(stderr, "benchmark: -diff needs two report arguments, got %d\n", fs.NArg())
			return 2
		}
		return diffFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	return execute(options{
		workload: *name, trace: *trace != 0, out: *out, aa: *aa,
		cfg: config{seed: *seed, seconds: *seconds, size: 1},
	}, stdout, stderr)
}

// execute runs the selected workloads. Each prints its metrics by name
// and then, as its last line, the outcome object; the exit code is
// non-zero when set-up failed or any op did.
func execute(opt options, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	selected := workloads
	if opt.workload != "all" {
		w, err := workloadByName(opt.workload)
		if err != nil {
			return fail(err)
		}
		selected = []workload{w}
	}
	if opt.aa > 0 {
		return selfDiff(selected, opt.cfg, opt.aa, stdout, stderr)
	}

	var rep report
	failed := 0
	for _, w := range selected {
		measure := endToEndRecord
		if opt.trace {
			measure = tracedRecord
		}
		rec, err := measure(w, opt.cfg, stdout)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(rec.outcome)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		rep.Runs = append(rep.Runs, *rec)
		failed += rec.Failed
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, rep); err != nil {
			return fail(err)
		}
	}
	if failed > 0 {
		return fail(fmt.Errorf("%d ops failed", failed))
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// endToEndRecord runs w untraced and prints its metrics by name.
func endToEndRecord(w workload, cfg config, stdout io.Writer) (*record, error) {
	res, err := runWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	rec := &record{Workload: w.name, Seed: cfg.seed, Rounds: res.rounds, outcome: outcome{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{},
	}}
	fmt.Fprintf(stdout, "workload %s seed %d rounds %d\n", w.name, cfg.seed, res.rounds)
	for _, m := range endToEnd {
		rec.Metrics[m.name] = metricValue{res.metrics[m.name], m.unit}
		fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", m.name, res.metrics[m.name], m.unit)
	}
	fmt.Fprintf(stdout, "  %-28s %14.4f us (information only)\n", "query_p99_us", res.p99)
	fmt.Fprintf(stdout, "  %-28s %14d\n  %-28s %14d\n", "ops_attempted", res.attempted, "ops_failed", res.failed)
	return rec, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
