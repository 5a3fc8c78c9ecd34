package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The benchmark resolves BENCHMARK.json and its out/ directory from the
// repository root, where the driver and `go run ./benchmark` start it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// smoke is the benchmark at n = 2000 with two rounds.
func smoke(seed int64) config { return config{seed: seed, rounds: 2, size: 0.02} }

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesCode holds BENCHMARK.json and the tables in the
// code together: same workloads with the same reasons, same metrics
// with the same units, directions and bounds.
func TestDeclarationMatchesCode(t *testing.T) {
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, code has %q: %q", i, d.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		better := "lower"
		if m.higherIsBetter {
			better = "higher"
		}
		got := d.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better || math.Abs(got.Bound-m.bound) > 1e-12 {
			t.Errorf("end-to-end metric %d: declared %+v, code has %+v", i, got, m)
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(d.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		if got := d.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: declared %+v, code has %+v", i, got, m)
		}
		if !name.MatchString(m.name) || seen[m.name] {
			t.Errorf("per-layer metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", d.Paths)
	}
}

// emittedOnce checks that out names each metric on exactly one line and
// that the record carries exactly the wanted metrics with their units.
func emittedOnce(t *testing.T, out string, rec *record, want map[string]string) {
	t.Helper()
	if len(rec.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", rec.Workload, len(rec.Metrics), len(want))
	}
	for name, unit := range want {
		v, ok := rec.Metrics[name]
		if !ok || v.Unit != unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", rec.Workload, name, v, unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s is %v", rec.Workload, name, v.Value)
		}
		lines := 0
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == name {
				lines++
			}
		}
		if lines != 1 {
			t.Errorf("%s: metric %s printed on %d lines, want 1", rec.Workload, name, lines)
		}
	}
	if rec.Failed != 0 || !rec.Correct || rec.Attempted < 1 {
		t.Errorf("%s: attempted %d failed %d correct %v", rec.Workload, rec.Attempted, rec.Failed, rec.Correct)
	}
}

// TestSmoke runs all four workloads end to end and traced at seeds 1
// and 2: every declared metric once with its unit, no failed op, and a
// trace file whose spans follow the ladder.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, seed := range []int64{1, 2} {
		for _, w := range workloads {
			var out bytes.Buffer
			rec, err := endToEndRecord(w, smoke(seed), &out)
			if err != nil {
				t.Fatal(err)
			}
			emittedOnce(t, out.String(), rec, e2e)
			for name, v := range rec.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v.Value)
				}
			}

			out.Reset()
			rec, err = tracedRecord(w, smoke(seed), &out)
			if err != nil {
				t.Fatal(err)
			}
			emittedOnce(t, out.String(), rec, layers)
			checkTraceFile(t, w.name)
		}
	}
}

// ladderParent is the span each ladder span must name as its parent.
var ladderParent = map[string]string{
	"server.handler":      "",
	"core.dynamic":        "server.handler",
	"engine.s1":           "core.dynamic",
	"core.retriever":      "engine.s1",
	"server.add":          "",
	"core.dynamic_add":    "server.add",
	"server.delete":       "",
	"core.dynamic_delete": "server.delete",
}

func checkTraceFile(t *testing.T, workload string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(outDir, "trace-"+workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != workload || len(tf.Spans) == 0 {
		t.Fatalf("trace file of %s names %q and holds %d spans", workload, tf.Workload, len(tf.Spans))
	}
	byID := map[int]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		want, known := ladderParent[s.Name]
		if !known {
			t.Fatalf("span %d has unknown name %q", s.ID, s.Name)
		}
		if s.EndNs < s.StartNs || s.Nesting != "declared" {
			t.Errorf("span %d: [%d, %d] nesting %q", s.ID, s.StartNs, s.EndNs, s.Nesting)
		}
		if want == "" {
			if s.Parent != 0 {
				t.Errorf("root span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Name != want || p.Request != s.Request {
			t.Errorf("span %d (%s, request %d) has parent %+v, want a %s of the same request", s.ID, s.Name, s.Request, p, want)
		}
	}
}

// TestRunPrintsTheContractLine drives the command line end to end on
// one small workload: the last line of standard output is the JSON
// object the driver parses.
func TestRunPrintsTheContractLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	report := filepath.Join(t.TempDir(), "report.json")
	opt := options{workload: "serve-mixed", cfg: smoke(3), out: report}
	if code := execute(opt, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[key]; !ok {
			t.Errorf("last line lacks %q", key)
		}
	}
	if len(got) != 4 {
		t.Errorf("last line has %d keys, want exactly 4", len(got))
	}

	// The report it wrote diffs clean against itself, and the seed is in it.
	runs, err := loadRuns(report)
	if err != nil || len(runs) != 1 || runs[0].Seed != 3 {
		t.Fatalf("report: %+v, %v", runs, err)
	}
	stdout.Reset()
	if code := diffRuns(runs, runs, &stdout); code != 0 {
		t.Errorf("a report regressed against itself:\n%s", stdout.String())
	}

	opt.workload = "no-such-workload"
	if code := execute(opt, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100}
	noisy := []float64{80, 120, 95, 105}
	for _, tc := range []struct {
		metric   string
		old, cur []float64
		want     string
	}{
		{"query_p50_us", steady, []float64{105, 106, 104, 105}, "ok"},
		{"query_p50_us", steady, []float64{130, 131, 129, 130}, "regressed"},
		{"throughput_per_s", steady, []float64{70, 71, 69, 70}, "regressed"},
		{"throughput_per_s", steady, []float64{120, 121, 119, 120}, "ok"},
		{"query_p50_us", noisy, noisy, "unresolved"},
		{"query_p50_us", noisy, []float64{70, 75, 72, 71}, "ok"},
		{"index_mib", steady, []float64{102, 102, 102, 102}, "regressed"},
		{"core.scanned_per_query", []float64{433.5, 433.5}, []float64{433.5}, "ok"},
		{"core.scanned_per_query", []float64{433.5}, []float64{433.6}, "drift"},
		{"core.retriever_us", steady, noisy, "-"},
	} {
		if got := judge(tc.metric, tc.old, tc.cur); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %q, want %q", tc.metric, tc.old, tc.cur, got, tc.want)
		}
	}
}
