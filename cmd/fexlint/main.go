// Command fexlint runs the project-specific static analyzers of
// internal/lint over the repository. It is stdlib-only (go/ast +
// go/types with a `go list`-free loader) and is wired into `make lint`,
// `make check`, `make precommit`, and CI.
//
// Usage:
//
//	fexlint [-json] [-fix] [-analyzers a,b,...] [-baseline FILE]
//	        [-write-baseline] [-check-baseline] [-timings] [-budget D]
//	        [patterns...]
//	fexlint -perf [-perf-facts FILE] [patterns...]
//	fexlint -write-perf-facts [-perf-facts FILE] [patterns...]
//
// Patterns default to ./... relative to the enclosing module.
//
// -perf runs the compiler-fact perf gate instead of the analyzers: it
// compiles the tree with `-gcflags='-m -d=ssa/check_bce'` and enforces
// the committed .fexperf-facts.json manifest — zero heap escapes in
// //fex:hot functions, no new bounds checks (ratcheted per function),
// and //fex:inline kernels still inlinable. Unrecognized toolchain
// output or a Go version other than the manifest's SKIPS the gate with
// a printed reason and exit 0 (compiler diagnostics are not a stable
// API). -write-perf-facts regenerates the manifest from the current
// tree and exits 0. See internal/lint/perfgate and DESIGN.md §14.
//
// Exit status (a contract scripts may rely on):
//
//	0  clean — no diagnostics after baseline suppression (and after
//	   fixes, when -fix was given)
//	1  diagnostics reported
//	2  load or usage error (bad flags, unparseable source, type errors)
//
// -fix applies every machine-applicable suggested fix in place and then
// reports only the findings that remain; fix application is idempotent
// (a second -fix pass rewrites nothing). Fixes apply after baseline
// suppression, so -fix only rewrites code for findings that fail a
// plain run anyway.
//
// -baseline names a grandfathered-findings file (default
// .fexlint-baseline.json at the module root; a missing file is an empty
// baseline). Matching findings are suppressed and counted instead of
// reported, so legacy debt is visible without failing the build, while
// anything new still exits 1. -write-baseline records the current
// findings to that file and exits 0 — the adoption entry point; because
// the file is rebuilt from scratch, entries whose findings no longer
// fire are pruned (and the prune count reported). -check-baseline
// exits 1 when the baseline holds dead entries — findings that no
// longer fire — so `make lint` forces the file to shrink as debt is
// burned down instead of rotting.
//
// -timings prints a per-analyzer cost table to stderr (unit-phase CPU
// time and module-phase wall clock). -budget D fails the run (exit 1)
// when total analysis wall clock — load plus analyzers — exceeds the
// duration D; CI pins this so an accidentally quadratic analyzer shows
// up as a red build, not a slowly creeping lint step.
//
// -json emits one object:
//
//	{
//	  "diagnostics": [
//	    {
//	      "analyzer": "boundflow",
//	      "file": "internal/core/retrieve.go",   // cwd-relative
//	      "line": 185, "col": 15,
//	      "message": "...",
//	      "fixes": [                             // omitted when empty
//	        {"message": "replace <= with <",
//	         "edits": [{"file": "...", "offset": 123, "end": 125,
//	                    "new_text": "<"}]}        // byte offsets, End exclusive
//	      ]
//	    }
//	  ],
//	  "count": 1,                // diagnostics after suppression
//	  "baseline_suppressed": 0   // findings absorbed by the baseline
//	}
//
// Suppress a single finding with a trailing or preceding line comment:
//
//	//lint:ignore <analyzer> reason
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fexipro/internal/lint"
	"fexipro/internal/lint/perfgate"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("fexlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics")
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	fix := fs.Bool("fix", false, "apply machine-applicable suggested fixes in place")
	baselinePath := fs.String("baseline", "", "baseline file of grandfathered findings (default: <module>/.fexlint-baseline.json)")
	writeBaseline := fs.Bool("write-baseline", false, "record current findings to the baseline file (pruning dead entries) and exit 0")
	checkBaseline := fs.Bool("check-baseline", false, "fail if the baseline contains entries no current finding matches")
	timings := fs.Bool("timings", false, "print per-analyzer wall-clock timings to stderr")
	budget := fs.Duration("budget", 0, "fail if analysis (load + run) exceeds this wall-clock ceiling")
	perf := fs.Bool("perf", false, "run the compiler-fact perf gate instead of the analyzers")
	writePerfFacts := fs.Bool("write-perf-facts", false, "regenerate the perf-facts manifest and exit 0")
	perfFactsPath := fs.String("perf-facts", "", "perf-facts manifest (default: <module>/.fexperf-facts.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := lint.ByName(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}
	root := loader.ModuleRoot()
	if *baselinePath == "" {
		*baselinePath = filepath.Join(root, ".fexlint-baseline.json")
	}
	if *perfFactsPath == "" {
		*perfFactsPath = filepath.Join(root, ".fexperf-facts.json")
	}
	if *perf || *writePerfFacts {
		return runPerfGate(root, *perfFactsPath, *writePerfFacts, fs.Args())
	}

	analysisStart := time.Now()
	units, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}
	loadFailed := false
	for _, u := range units {
		for _, terr := range u.TypeErrors {
			loadFailed = true
			fmt.Fprintf(os.Stderr, "fexlint: %s: type error: %v\n", u.Path, terr)
		}
	}
	if loadFailed {
		return 2
	}

	diags, perAnalyzer := lint.RunTimed(units, analyzers)
	elapsed := time.Since(analysisStart)
	if *timings {
		printTimings(perAnalyzer, elapsed)
	}
	overBudget := *budget > 0 && elapsed > *budget
	if overBudget {
		fmt.Fprintf(os.Stderr, "fexlint: analysis took %v, over the %v budget — profile with -timings and trim the slow analyzer\n",
			elapsed.Round(time.Millisecond), *budget)
	}

	baseline, err := lint.LoadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}
	dead := baseline.Dead(root, diags)

	if *writeBaseline {
		if err := lint.WriteBaseline(*baselinePath, root, diags); err != nil {
			fmt.Fprintln(os.Stderr, "fexlint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "fexlint: wrote %d finding(s) to %s", len(diags), *baselinePath)
		if n := deadCount(dead); n > 0 {
			fmt.Fprintf(os.Stderr, " (pruned %d dead entr%s)", n, plural(n, "y", "ies"))
		}
		fmt.Fprintln(os.Stderr)
		return 0
	}

	deadFound := *checkBaseline && len(dead) > 0
	if deadFound {
		for _, e := range dead {
			fmt.Fprintf(os.Stderr, "fexlint: dead baseline entry: %s: %s: %s (count %d) — no current finding matches; rewrite with -write-baseline\n",
				e.File, e.Analyzer, e.Message, e.Count)
		}
	}

	diags, suppressed := baseline.Filter(root, diags)

	if *fix {
		changed, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fexlint:", err)
			return 2
		}
		for _, f := range changed {
			fmt.Fprintf(os.Stderr, "fexlint: fixed %s\n", relTo(cwd, f))
		}
		// Fixed findings are gone from the tree; report the rest.
		var remaining []lint.Diagnostic
		for _, d := range diags {
			if len(d.Fixes) == 0 {
				remaining = append(remaining, d)
			}
		}
		diags = remaining
	}

	for i := range diags {
		diags[i].File = relTo(cwd, diags[i].File)
		for j := range diags[i].Fixes {
			for k := range diags[i].Fixes[j].Edits {
				e := &diags[i].Fixes[j].Edits[k]
				e.File = relTo(cwd, e.File)
			}
		}
	}
	if *jsonOut {
		out := struct {
			Diagnostics        []lint.Diagnostic `json:"diagnostics"`
			Count              int               `json:"count"`
			BaselineSuppressed int               `json:"baseline_suppressed"`
		}{Diagnostics: diags, Count: len(diags), BaselineSuppressed: suppressed}
		if out.Diagnostics == nil {
			out.Diagnostics = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "fexlint:", err)
			return 2
		}
	} else {
		if suppressed > 0 {
			fmt.Fprintf(os.Stderr, "fexlint: %d finding(s) suppressed by %s\n", suppressed, relTo(cwd, *baselinePath))
		}
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 || deadFound || overBudget {
		return 1
	}
	return 0
}

// printTimings renders the -timings table: per-analyzer unit-phase CPU
// time and module-phase wall clock, plus total analysis wall clock
// (load + run), which is what -budget meters.
func printTimings(ts []lint.Timing, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "%-14s %12s %12s\n", "analyzer", "unit(cpu)", "module")
	for _, t := range ts {
		fmt.Fprintf(os.Stderr, "%-14s %12s %12s\n", t.Analyzer,
			t.Unit.Round(time.Microsecond), t.Module.Round(time.Microsecond))
	}
	fmt.Fprintf(os.Stderr, "total wall clock (load + run): %v\n", elapsed.Round(time.Millisecond))
}

// deadCount sums the unused finding slots across dead baseline entries.
func deadCount(dead []lint.BaselineEntry) int {
	n := 0
	for _, e := range dead {
		n += e.Count
	}
	return n
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// runPerfGate is the -perf / -write-perf-facts entry point. It shares
// fexlint's exit-status contract: 0 clean or skipped-with-reason, 1
// contract violations, 2 operational errors.
func runPerfGate(root, manifestPath string, write bool, patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if write {
		m, err := perfgate.Write("", root, manifestPath, patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fexlint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "fexlint: wrote perf facts for %d function(s) to %s\n", len(m.Functions), manifestPath)
		return 0
	}
	res, err := perfgate.Run("", root, manifestPath, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fexlint:", err)
		return 2
	}
	if res.SkipReason != "" {
		fmt.Fprintf(os.Stderr, "fexlint: perf gate skipped: %s\n", res.SkipReason)
		return 0
	}
	for _, p := range res.Problems {
		fmt.Println(p.String())
	}
	if len(res.Problems) > 0 {
		return 1
	}
	return 0
}

// relTo maps path under base to a relative form for display, leaving
// anything outside base untouched.
func relTo(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return path
}
