// Package clitest builds the command-line tools and exercises them end
// to end: generate factors with fexgen, query them with fexquery, and
// regenerate a paper exhibit with fexbench.
package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// buildTool compiles one cmd/<name> into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	return buildMain(t, dir, name, "fexipro/cmd/"+name)
}

// buildMain compiles the main package pkg into dir/name.
func buildMain(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/clitest → repo root
}

func run(t *testing.T, bin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout: %s\nstderr: %s", bin, args, err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestGenQueryPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	fexgen := buildTool(t, dir, "fexgen")
	fexquery := buildTool(t, dir, "fexquery")

	out, _ := run(t, fexgen, "-profile", "movielens", "-items", "500", "-queries", "5", "-dim", "16", "-out", dir)
	if !strings.Contains(out, "items.fxp") {
		t.Fatalf("fexgen output: %s", out)
	}

	// Exact methods must agree on the top-1 line for every query.
	var first string
	for _, method := range []string{"fexipro", "naive", "ssl", "balltree"} {
		qout, _ := run(t, fexquery,
			"-items", filepath.Join(dir, "items.fxp"),
			"-queries", filepath.Join(dir, "queries.fxp"),
			"-k", "1", "-method", method)
		if first == "" {
			first = qout
			if !strings.Contains(first, "query 0:") {
				t.Fatalf("unexpected fexquery output: %s", first)
			}
			continue
		}
		if qout != first {
			t.Fatalf("method %s disagrees:\n%s\nvs\n%s", method, qout, first)
		}
	}

	// -stats prints one counter line per query to stderr, from the
	// query's WithStats sink: the naive scan multiplies all 500 items,
	// FEXIPRO at least one and never more than it scanned.
	statsLine := regexp.MustCompile(`(?m)^  [0-9.]+µs scanned=(\d+) pruned=(\d+) full=(\d+)$`)
	for _, method := range []string{"naive", "fexipro"} {
		_, stderr := run(t, fexquery,
			"-items", filepath.Join(dir, "items.fxp"),
			"-queries", filepath.Join(dir, "queries.fxp"),
			"-k", "3", "-method", method, "-stats")
		lines := statsLine.FindAllStringSubmatch(stderr, -1)
		if len(lines) != 5 {
			t.Fatalf("%s -stats: %d counter lines for 5 queries:\n%s", method, len(lines), stderr)
		}
		for _, m := range lines {
			scanned, _ := strconv.Atoi(m[1])
			pruned, _ := strconv.Atoi(m[2])
			full, _ := strconv.Atoi(m[3])
			ok := 0 < full && full <= scanned && scanned <= 500
			if method == "naive" {
				ok = scanned == 500 && pruned == 0 && full == 500
			}
			if !ok {
				t.Fatalf("%s -stats: %q", method, m[0])
			}
		}
	}
}

// TestQuickstartRuns runs examples/quickstart, the program the README's
// quick start comes from: every answer matches the naive scan, and every
// query prints the counters its WithStats sink collected.
func TestQuickstartRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	out, _ := run(t, buildMain(t, t.TempDir(), "quickstart", "fexipro/examples/quickstart"))
	if !strings.Contains(out, "all results verified against the naive scan") ||
		!regexp.MustCompile(`scanned \d+, pruned \d+, full products \d+`).MatchString(out) {
		t.Fatalf("quickstart output:\n%s", out)
	}
}

func TestGenTrainPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	fexgen := buildTool(t, dir, "fexgen")
	out, _ := run(t, fexgen, "-train", "-users", "120", "-trainitems", "80", "-dim", "6",
		"-peruser", "20", "-out", dir)
	if !strings.Contains(out, "training RMSE") {
		t.Fatalf("fexgen -train output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "items.fxp")); err != nil {
		t.Fatal(err)
	}
}

func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	fexbench := buildTool(t, dir, "fexbench")

	out, _ := run(t, fexbench, "-list")
	for _, id := range []string{"table3", "table8", "fig20"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list missing %s:\n%s", id, out)
		}
	}

	out, _ = run(t, fexbench, "-exp", "table3", "-profiles", "netflix", "-items", "800", "-queries", "5")
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "netflix") {
		t.Fatalf("table3 output:\n%s", out)
	}
}

func TestQueryStdin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	fexgen := buildTool(t, dir, "fexgen")
	fexquery := buildTool(t, dir, "fexquery")
	run(t, fexgen, "-profile", "yelp", "-items", "200", "-queries", "1", "-dim", "4", "-out", dir)

	cmd := exec.Command(fexquery, "-items", filepath.Join(dir, "items.fxp"), "-stdin", "-k", "2")
	cmd.Stdin = strings.NewReader("0.5,-0.25,1.0,0.0\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fexquery -stdin: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "query 0:") {
		t.Fatalf("stdin output: %s", out)
	}
}
