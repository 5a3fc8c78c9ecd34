package load_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/load"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

func TestQueryVectorDeterministic(t *testing.T) {
	a := load.QueryVector(7, 12345, 16)
	b := load.QueryVector(7, 12345, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, user, dim) gave different vectors")
	}
	c := load.QueryVector(7, 12346, 16)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different users gave identical vectors")
	}
	d := load.QueryVector(8, 12345, 16)
	if reflect.DeepEqual(a, d) {
		t.Fatal("different seeds gave identical vectors")
	}
}

func TestReportRoundTrip(t *testing.T) {
	in := &load.Report{
		Schema: load.Schema,
		Target: "http://example:8080",
		Workload: load.Workload{
			Rate: 200, DurationMs: 5000, Users: 1_000_000, ZipfS: 1.2,
			K: 10, Dim: 16, MutateEvery: 10, Seed: 42,
		},
		Sent: 1000, Completed: 990, Shed: 10, Errors: 2,
		ByStatus: map[string]int{"2xx": 985, "4xx": 3},
		Searches: 890, Adds: 50, Deletes: 48, Partials: 4,
		ElapsedMs: 5100.25, AchievedQPS: 194.1,
		LatencyMs: load.Latency{Mean: 1.5, P50: 1.2, P95: 3.4, P99: 8.8, P999: 20.1, Max: 25.5},
		SLOs: []load.SLOResult{
			{Objective: "10ms", ObjectiveMs: 10, Violations: 7, BurnRate: 7.0 / 890},
			{Objective: "50ms", ObjectiveMs: 50, Violations: 0, BurnRate: 0},
		},
	}
	raw, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var out load.Report
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("round trip changed the report:\nin:  %+v\nout: %+v", in, &out)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
}

func TestReportValidate(t *testing.T) {
	base := func() *load.Report {
		return &load.Report{
			Schema: load.Schema, Target: "http://x",
			Sent: 10, Completed: 10, Searches: 10,
			SLOs: []load.SLOResult{{Objective: "10ms", ObjectiveMs: 10}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := base()
	bad.Schema = "fexload/v0"
	if bad.Validate() == nil {
		t.Fatal("wrong schema accepted")
	}
	bad = base()
	bad.Completed = 11
	if bad.Validate() == nil {
		t.Fatal("completed > sent accepted")
	}
	bad = base()
	bad.Searches = 7 // adds+deletes+errors still 0
	if bad.Validate() == nil {
		t.Fatal("op counts != completed accepted")
	}
	bad = base()
	bad.SLOs = nil
	if bad.Validate() == nil {
		t.Fatal("missing SLO results accepted")
	}
}

// TestRunSmoke drives a real in-process fexserve with searches and
// interleaved mutations and checks the report is internally
// consistent: the smoke-level acceptance of the generator.
func TestRunSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := vec.NewMatrix(300, 8)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	srv, err := server.NewWithConfig(items, core.Options{SVD: true, Int: true, Reduction: true}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := load.Run(context.Background(), load.Config{
		Target:      ts.URL,
		Dim:         8,
		Rate:        400,
		Duration:    500 * time.Millisecond,
		Users:       10_000,
		K:           5,
		MutateEvery: 10,
		BurstEvery:  200 * time.Millisecond,
		BurstDur:    50 * time.Millisecond,
		BurstFactor: 2,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v\n%+v", err, rep)
	}
	if rep.Searches == 0 {
		t.Fatalf("no searches completed: %+v", rep)
	}
	if rep.Adds == 0 {
		t.Fatalf("no mutations despite MutateEvery: %+v", rep)
	}
	if rep.Errors > 0 {
		t.Fatalf("transport errors against healthy in-process server: %+v", rep)
	}
	if rep.ByStatus["2xx"] == 0 {
		t.Fatalf("no 2xx responses: %+v", rep)
	}
	if rep.LatencyMs.P50 <= 0 || rep.LatencyMs.Max < rep.LatencyMs.P999 ||
		rep.LatencyMs.P999 < rep.LatencyMs.P50 {
		t.Fatalf("latency summary inconsistent: %+v", rep.LatencyMs)
	}
	if rep.AchievedQPS <= 0 {
		t.Fatalf("achieved QPS not positive: %+v", rep)
	}
	// fexload/v1 must survive the disk round trip (the -slojson
	// contract).
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back load.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped run report invalid: %v", err)
	}
}

// TestRunCancel: cancelling the context stops arrival generation
// promptly instead of running out the full duration.
func TestRunCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := vec.NewMatrix(50, 4)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	srv, err := server.New(items, core.Options{SVD: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := load.Run(ctx, load.Config{
		Target: ts.URL, Dim: 4, Rate: 50, Duration: time.Hour, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancelled run took %v", took)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("cancelled run report invalid: %v", err)
	}
}

// TestRunJoinsGoroutines: everything Run starts — sender goroutines
// and its own client's transport keep-alive goroutines — must be gone
// by the time Run returns, so fexload can write its -slojson report
// knowing no stragglers are still mutating the tally. The goroutine
// count is allowed a short settling window (conn teardown on the
// httptest server side is asynchronous), but must return to its
// pre-run level.
func TestRunJoinsGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := vec.NewMatrix(50, 4)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	srv, err := server.New(items, core.Options{SVD: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()
	rep, err := load.Run(context.Background(), load.Config{
		Target: ts.URL, Dim: 4, Rate: 400, Duration: 300 * time.Millisecond,
		MutateEvery: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatalf("no requests completed, nothing exercised: %+v", rep)
	}

	deadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines did not settle after Run: %d before, %d now\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}
