package server_test

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/faults"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

// newGuardedServer builds a server with an explicit guard config and a
// fault registry, over a seeded random index.
func newGuardedServer(t *testing.T, n, d int, cfg server.Config) (*httptest.Server, *server.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	srv, err := server.NewWithConfig(items, core.Options{SVD: true, Int: true, Reduction: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func searchBody() string { return `{"vector": [1,0,0,0,0,0,0,0], "k": 5}` }

func doSearch(t *testing.T, url string, headers map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/search", strings.NewReader(searchBody()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp, string(raw)
}

// TestShedLoad: with one concurrency slot and an injected per-call stall
// long enough to pile clients up, the excess is shed with 429, a
// Retry-After header, and code "shed" — and the shed counter matches.
func TestShedLoad(t *testing.T) {
	reg := faults.NewRegistry(1)
	reg.Enable(faults.SiteServerSearch, faults.Plan{CallLatency: 50 * time.Millisecond})
	ts, srv := newGuardedServer(t, 200, 8, server.Config{
		MaxConcurrent: 1,
		Faults:        reg,
	})

	const clients = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := doSearch(t, ts.URL, nil)
			mu.Lock()
			statuses[resp.StatusCode]++
			mu.Unlock()
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After header")
				}
				if !strings.Contains(body, `"code":"shed"`) {
					t.Errorf("429 body missing shed code: %s", body)
				}
			}
		}()
	}
	wg.Wait()

	if statuses[200] == 0 {
		t.Fatalf("no request succeeded: %v", statuses)
	}
	if statuses[429] == 0 {
		t.Fatalf("nothing was shed despite 1 slot and %d clients: %v", clients, statuses)
	}
	if got := srv.Metrics().Snapshot()["fexserve_guard_sheds_total"]; int(got) != statuses[429] {
		t.Fatalf("shed counter %v != observed 429s %d", got, statuses[429])
	}
	// Health stays reachable even while the serving path is saturated.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz = %v, %v", resp, err)
	}
	_ = resp.Body.Close()
}

// TestDeadline504 is the server-level acceptance criterion: a request
// carrying a 1 ms X-Timeout-Ms against an index whose scan is stalled by
// an injected fault answers 504 code "deadline" well under 10 ms of scan
// work, and the timeout counter advances.
func TestDeadline504(t *testing.T) {
	reg := faults.NewRegistry(2)
	// A 2 ms stall at every scan poll: the 1 ms deadline is expired by the
	// end of the very first poll, whatever the machine load, and that poll
	// ends the scan.
	reg.Enable(faults.SiteScan, faults.Plan{ItemLatency: 2 * time.Millisecond})
	ts, srv := newGuardedServer(t, 5000, 8, server.Config{Faults: reg})

	resp, body := doSearch(t, ts.URL, map[string]string{server.TimeoutHeader: "1"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"code":"deadline"`) {
		t.Fatalf("504 body missing deadline code: %s", body)
	}
	if got := srv.Metrics().Snapshot()["fexserve_guard_timeouts_total"]; got < 1 {
		t.Fatalf("timeout counter = %v, want ≥ 1", got)
	}
	// Without deadline pressure the same index answers 200 and exact.
	reg.Disable(faults.SiteScan)
	resp2, body2 := doSearch(t, ts.URL, nil)
	if resp2.StatusCode != 200 || !strings.Contains(body2, `"exact":true`) {
		t.Fatalf("recovered search = %d %s", resp2.StatusCode, body2)
	}
}

// TestPartialOnDeadline: the same expiry under Config.PartialOnDeadline
// answers 200 with "exact": false and counts a partial.
func TestPartialOnDeadline(t *testing.T) {
	reg := faults.NewRegistry(3)
	reg.Enable(faults.SiteScan, faults.Plan{ItemLatency: 2 * time.Millisecond})
	ts, srv := newGuardedServer(t, 5000, 8, server.Config{
		PartialOnDeadline: true,
		Faults:            reg,
	})

	resp, body := doSearch(t, ts.URL, map[string]string{server.TimeoutHeader: "1"})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"exact":false`) {
		t.Fatalf("partial answer not flagged inexact: %s", body)
	}
	snap := srv.Metrics().Snapshot()
	if snap["fexserve_guard_partials_total"] < 1 || snap["fexserve_guard_timeouts_total"] < 1 {
		t.Fatalf("partial/timeout counters not advanced: %v", snap)
	}
}

// TestPanicRecovery covers both panic sites: a request-level injected
// panic and a scan-level panic raised while the index mutex is held —
// at one shard on the request's goroutine, at two in an engine worker,
// which must hand it back to that goroutine for recoverPanics to see.
// Both must answer 500 code "panic" with a trace ID, advance the panic
// counter, and leave the server serving (the mutex is released by the
// deferred unlock, so a deadlock here would hang the follow-up request).
func TestPanicRecovery(t *testing.T) {
	for _, shards := range []int{1, 2} {
		reg := faults.NewRegistry(4)
		ts, srv := newGuardedServer(t, 200, 8, server.Config{Faults: reg, Shards: shards, SearchWorkers: 2})
		for _, site := range []struct {
			name string
			plan faults.Plan
		}{
			{faults.SiteServerSearch, faults.Plan{PanicEveryNCalls: 1}}, // before any index work
			{faults.SiteScan, faults.Plan{PanicAtItem: 1}},              // at the scan's first poll, under the index mutex
		} {
			reg.Enable(site.name, site.plan)
			resp, body := doSearch(t, ts.URL, nil)
			if resp.StatusCode != 500 || !strings.Contains(body, `"code":"panic"`) {
				t.Fatalf("shards=%d: %s panic answered %d %s", shards, site.name, resp.StatusCode, body)
			}
			if resp.Header.Get("X-Trace-Id") == "" {
				t.Fatalf("shards=%d: %s panic response lost the trace ID header", shards, site.name)
			}
			reg.Disable(site.name)
		}

		// The server must still answer; a leaked mutex would hang here.
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, body := doSearch(t, ts.URL, nil)
			if resp.StatusCode != 200 {
				t.Errorf("shards=%d: post-panic search = %d %s", shards, resp.StatusCode, body)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("shards=%d: server deadlocked after recovered panic", shards)
		}
		if got := srv.Metrics().Snapshot()["fexserve_guard_panics_total"]; got != 2 {
			t.Fatalf("shards=%d: panic counter = %v, want 2", shards, got)
		}
	}
}

// TestInjectedCallFailure: FailEveryNCalls surfaces as 500 code
// "injected", distinct from panics and deadlines.
func TestInjectedCallFailure(t *testing.T) {
	reg := faults.NewRegistry(5)
	reg.Enable(faults.SiteServerSearch, faults.Plan{FailEveryNCalls: 1})
	ts, _ := newGuardedServer(t, 100, 8, server.Config{Faults: reg})
	resp, body := doSearch(t, ts.URL, nil)
	if resp.StatusCode != 500 || !strings.Contains(body, `"code":"injected"`) {
		t.Fatalf("injected failure answered %d %s", resp.StatusCode, body)
	}
}

// TestReadyzLifecycle: ready after build, 503 while draining, ready
// again when re-enabled; the gauge mirrors the transitions.
func TestReadyzLifecycle(t *testing.T) {
	ts, srv := newGuardedServer(t, 50, 8, server.Config{})
	get := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := get(); got != 200 {
		t.Fatalf("fresh server readyz = %d", got)
	}
	srv.SetReady(false)
	if got := get(); got != 503 {
		t.Fatalf("draining readyz = %d, want 503", got)
	}
	if v := srv.Metrics().Snapshot()["fexserve_ready"]; v != 0 {
		t.Fatalf("ready gauge = %v while draining", v)
	}
	// Guarded routes keep working while not ready — draining means "stop
	// routing new traffic here", not "drop in-flight work".
	resp, _ := doSearch(t, ts.URL, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("search while draining = %d", resp.StatusCode)
	}
	srv.SetReady(true)
	if got := get(); got != 200 {
		t.Fatalf("re-enabled readyz = %d", got)
	}
}

// TestMaxTimeoutClamp: an absurd client X-Timeout-Ms is clamped to
// Config.MaxTimeout rather than honoured or rejected.
func TestMaxTimeoutClamp(t *testing.T) {
	reg := faults.NewRegistry(6)
	// Stall every poll 10 ms: with MaxTimeout 5 ms the clamped deadline
	// has expired by the end of the first poll, which ends the scan, even
	// though the client asked for an hour.
	reg.Enable(faults.SiteScan, faults.Plan{ItemLatency: 10 * time.Millisecond})
	ts, _ := newGuardedServer(t, 5000, 8, server.Config{
		MaxTimeout: 5 * time.Millisecond,
		Faults:     reg,
	})
	start := time.Now()
	resp, body := doSearch(t, ts.URL, map[string]string{server.TimeoutHeader: "3600000"})
	took := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if took > 2*time.Second {
		t.Fatalf("clamped request still took %v", took)
	}
}
