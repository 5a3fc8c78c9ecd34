package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestE2EChaos is the race-detector end-to-end exercise: concurrent
// searchers, threshold scanners, mutators, and metrics scrapers hammer
// one guarded server while the fault registry injects call latency,
// call failures, and scan latency on every poll. The test asserts:
//
//   - no deadlock (bounded by the test timeout; every client returns)
//   - every response is one of the expected statuses, and every non-2xx
//     body carries a machine-readable code
//   - searches and mutations both succeeded, and every injected call
//     failure surfaced as exactly one 500
//   - cumulative *_total metrics are monotone across mid-run scrapes
//   - the request-total counters account for every request we sent
//
// CI runs this file under -race (the race job). The assertions hold on any
// schedule: the four searchers can hold all four MaxConcurrent slots for as
// long as they run and every later mutation may be shed with 429, so they
// start only once each mutator's first add — two requests on four slots,
// calls 1 and 2 of a site that fails its 13th — has been answered 201; a
// search is shed only while at least two admitted searches hold slots, and
// the first one admitted answers 200 unless it stalls past RequestTimeout.
func TestE2EChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const dim = 8
	items := vec.NewMatrix(300, dim)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}

	reg := faults.NewRegistry(23)
	reg.Enable(faults.SiteServerSearch, faults.Plan{
		CallLatency:     200 * time.Microsecond,
		FailEveryNCalls: 17, // sprinkle 500 "injected" among the 200s
	})
	reg.Enable(faults.SiteServerMutate, faults.Plan{FailEveryNCalls: 13})
	// A search of these 300 rows polls once: stall each poll about as long
	// as a stall every 64 rows would add up to.
	reg.Enable(faults.SiteScan, faults.Plan{ItemLatency: 100 * time.Microsecond})

	srv, err := server.NewWithConfig(items, core.Options{SVD: true, Int: true, Reduction: true}, server.Config{
		MaxConcurrent:  4,
		RequestTimeout: 250 * time.Millisecond,
		Faults:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	allowed := map[int]bool{200: true, 201: true, 204: true, 400: true, 404: true, 429: true, 500: true, 504: true}

	var (
		mu       sync.Mutex
		statuses = map[int]int{}
		issued   int // requests to guarded /v1/ routes
	)
	record := func(resp *http.Response, body []byte) {
		mu.Lock()
		statuses[resp.StatusCode]++
		issued++
		mu.Unlock()
		if !allowed[resp.StatusCode] {
			t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
		}
		if resp.StatusCode >= 400 {
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Code == "" {
				t.Errorf("status %d body lacks error code: %s", resp.StatusCode, body)
			}
		}
	}
	do := func(method, path string, payload any) {
		var rdr io.Reader
		if payload != nil {
			raw, err := json.Marshal(payload)
			if err != nil {
				t.Error(err)
				return
			}
			rdr = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, ts.URL+path, rdr)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		record(resp, body)
	}
	randVec := func(rng *rand.Rand) []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		return v
	}

	// scrapeTotals parses the *_total metric lines off /metrics.
	scrapeTotals := func() map[string]float64 {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		totals := map[string]float64{}
		for _, line := range strings.Split(string(raw), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			name := line[:sp]
			if !strings.Contains(name, "_total") {
				continue
			}
			var v float64
			if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err == nil {
				totals[name] = v
			}
		}
		return totals
	}

	const perWorker = 40
	// One constant-seeded RNG per worker (each goroutine owns exactly
	// one, so no locking), keeping chaos-run failures reproducible.
	searcherRNGs := []*rand.Rand{
		rand.New(rand.NewSource(101)),
		rand.New(rand.NewSource(102)),
		rand.New(rand.NewSource(103)),
		rand.New(rand.NewSource(104)),
	}
	mutatorRNGs := []*rand.Rand{
		rand.New(rand.NewSource(201)),
		rand.New(rand.NewSource(202)),
	}
	searchers, mutators := len(searcherRNGs), len(mutatorRNGs)
	var wg, firstAdds sync.WaitGroup
	firstAdds.Add(mutators)
	for w := 0; w < searchers; w++ {
		rng := searcherRNGs[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			firstAdds.Wait()
			for i := 0; i < perWorker; i++ {
				if i%5 == 4 {
					thr := rng.NormFloat64()
					do("POST", "/v1/above", map[string]any{"vector": randVec(rng), "threshold": thr})
				} else {
					do("POST", "/v1/search", map[string]any{"vector": randVec(rng), "k": 1 + rng.Intn(10)})
				}
			}
		}()
	}
	for w := 0; w < mutators; w++ {
		rng := mutatorRNGs[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%3 == 2 {
					do("DELETE", fmt.Sprintf("/v1/items/%d", rng.Intn(400)), nil)
				} else {
					do("POST", "/v1/items", map[string]any{"vector": randVec(rng)})
				}
				if i == 0 {
					firstAdds.Done()
				}
			}
		}()
	}
	// A scraper thread asserts monotonicity of every *_total while the
	// chaos runs; /metrics is unguarded so it must never shed or block.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		prev := scrapeTotals()
		for {
			select {
			case <-stopScrape:
				return
			case <-time.After(5 * time.Millisecond):
			}
			cur := scrapeTotals()
			for name, was := range prev {
				if now, ok := cur[name]; ok && now < was {
					t.Errorf("counter %s went backwards: %v -> %v", name, was, now)
				}
			}
			prev = cur
		}
	}()

	waitCh := make(chan struct{})
	go func() { wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-time.After(60 * time.Second):
		t.Fatal("e2e chaos deadlocked: clients did not finish")
	}
	close(stopScrape)
	<-scrapeDone

	mu.Lock()
	defer mu.Unlock()
	want := searchers*perWorker + mutators*perWorker
	if issued != want {
		t.Fatalf("recorded %d responses, want %d", issued, want)
	}
	if statuses[200] == 0 || statuses[201] < mutators {
		t.Fatalf("chaos produced no successes: %v", statuses)
	}
	counts := reg.Counts()
	if injected := counts[faults.SiteServerSearch].Cancels + counts[faults.SiteServerMutate].Cancels; int64(statuses[500]) != injected {
		t.Fatalf("FailEveryNCalls failed %d calls, %d answers were 500: %v", injected, statuses[500], statuses)
	}

	// The request counter accounts for every guarded request we issued
	// (health/metrics/readyz land on other route labels).
	totals := scrapeTotals()
	var reqTotal float64
	for name, v := range totals {
		if strings.HasPrefix(name, "fexserve_http_requests_total") && strings.Contains(name, `route="/v1/`) {
			reqTotal += v
		}
	}
	if int(reqTotal) < want {
		t.Fatalf("fexserve_http_requests_total across /v1/ routes = %v, want ≥ %d", reqTotal, want)
	}

	// Fault accounting: the registry saw the traffic it injected into.
	if counts[faults.SiteServerSearch].Calls == 0 || counts[faults.SiteServerMutate].Calls == 0 {
		t.Fatalf("fault sites saw no calls: %+v", counts)
	}
}
