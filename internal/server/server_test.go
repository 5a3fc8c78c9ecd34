package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/scan"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

func newTestServer(t *testing.T, n, d int) (*httptest.Server, *vec.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	srv, err := server.New(items, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, items
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

type searchResp struct {
	Results []struct {
		ID    int     `json:"id"`
		Score float64 `json:"score"`
	} `json:"results"`
	TookMicros int64 `json:"tookMicros"`
	Stats      struct {
		Scanned      int `json:"scanned"`
		Pruned       int `json:"pruned"`
		FullProducts int `json:"fullProducts"`
	} `json:"stats"`
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSearchEndpoint(t *testing.T) {
	ts, items := newTestServer(t, 300, 8)
	q := []float64{1, -0.5, 0.3, 0.7, -0.2, 0.1, 0.9, -1.1}
	resp := postJSON(t, ts.URL+"/v1/search", map[string]any{"vector": q, "k": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decode[searchResp](t, resp)
	if len(got.Results) != 5 {
		t.Fatalf("got %d results", len(got.Results))
	}
	want := scan.NewNaive(items).Search(q, 5)
	for i := range want {
		if got.Results[i].ID != want[i].ID {
			t.Fatalf("rank %d: %v vs %v", i, got.Results[i], want[i])
		}
	}
	if got.Stats.Scanned == 0 {
		t.Fatal("stats missing")
	}
}

func TestSearchValidation(t *testing.T) {
	ts, _ := newTestServer(t, 50, 4)
	cases := []struct {
		body any
		want int
	}{
		{map[string]any{"vector": []float64{1, 2}, "k": 3}, http.StatusBadRequest},       // wrong dim
		{map[string]any{"vector": []float64{1, 2, 3, 4}, "k": 0}, http.StatusBadRequest}, // bad k
		{map[string]any{"vector": []float64{1, 2, 3, 4}, "k": 100000}, http.StatusBadRequest},
		{"not json at all", http.StatusBadRequest},
	}
	for i, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/search", c.body)
		_ = resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("case %d: status %d, want %d", i, resp.StatusCode, c.want)
		}
	}
	// NaN vector via raw JSON is impossible (JSON has no NaN), but huge
	// values are finite and allowed — just verify it answers.
	resp := postJSON(t, ts.URL+"/v1/search", map[string]any{"vector": []float64{1e300, 0, 0, 0}, "k": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("huge values: status %d", resp.StatusCode)
	}
	_ = resp.Body.Close()
}

func TestAboveEndpoint(t *testing.T) {
	ts, items := newTestServer(t, 300, 8)
	q := make([]float64, 8)
	q[0] = 2
	top := scan.NewNaive(items).Search(q, 10)
	thr := top[9].Score - 1e-9
	resp := postJSON(t, ts.URL+"/v1/above", map[string]any{"vector": q, "threshold": thr})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decode[searchResp](t, resp)
	if len(got.Results) != 10 {
		t.Fatalf("got %d results, want 10", len(got.Results))
	}
	// Missing threshold rejected.
	resp = postJSON(t, ts.URL+"/v1/above", map[string]any{"vector": q})
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing threshold: status %d", resp.StatusCode)
	}
}

// TestAboveTruncatedIsNotExact: /v1/above bounds its response at MaxK, and
// a list it cut is not the exact answer — `exact` says so; an answer that
// fits is exact, sharded or not.
func TestAboveTruncatedIsNotExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := vec.NewMatrix(200, 6)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	q := []float64{1, -1, 0.5, 0.25, 2, -0.5}
	ranked := scan.NewNaive(items).Search(q, items.Rows)
	for _, shards := range []int{1, 3} {
		srv, err := server.NewWithConfig(items, core.Options{SVD: true, Int: true, Reduction: true},
			server.Config{MaxK: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		for _, c := range []struct {
			above int // the threshold sits just below this rank's score
			n     int
			exact bool
		}{{3, 4, true}, {4, 5, true}, {5, 5, false}, {150, 5, false}} {
			thr := ranked[c.above].Score - 1e-9
			got := decode[struct {
				Results []struct{ ID int } `json:"results"`
				Exact   bool               `json:"exact"`
			}](t, postJSON(t, ts.URL+"/v1/above", map[string]any{"vector": q, "threshold": thr}))
			if len(got.Results) != c.n || got.Exact != c.exact {
				t.Fatalf("S=%d, %d items above t: %d results, exact=%v; want %d, %v",
					shards, c.above+1, len(got.Results), got.Exact, c.n, c.exact)
			}
			for i, r := range got.Results {
				if r.ID != ranked[i].ID {
					t.Fatalf("S=%d rank %d: id %d, want %d", shards, i, r.ID, ranked[i].ID)
				}
			}
		}
		ts.Close()
	}
}

func TestItemLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, 100, 4)

	// Add a dominant item.
	resp := postJSON(t, ts.URL+"/v1/items", map[string]any{"vector": []float64{50, 50, 50, 50}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add status %d", resp.StatusCode)
	}
	added := decode[map[string]int](t, resp)
	id := added["id"]
	if id != 100 {
		t.Fatalf("new id %d, want 100", id)
	}

	q := []float64{1, 1, 1, 1}
	search := decode[searchResp](t, postJSON(t, ts.URL+"/v1/search", map[string]any{"vector": q, "k": 1}))
	if search.Results[0].ID != id {
		t.Fatalf("dominant item not top: %v", search.Results)
	}

	// Delete and confirm it is gone.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/items/%d", ts.URL, id), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	search = decode[searchResp](t, postJSON(t, ts.URL+"/v1/search", map[string]any{"vector": q, "k": 1}))
	if search.Results[0].ID == id {
		t.Fatal("deleted item still returned")
	}

	// Double delete → 404.
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status %d", dresp2.StatusCode)
	}

	// Bad id → 400.
	breq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/items/notanumber", nil)
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	_ = bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status %d", bresp.StatusCode)
	}
}

func TestInfoAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, 42, 4)
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	info := decode[map[string]any](t, resp)
	if info["items"].(float64) != 42 || info["dim"].(float64) != 4 {
		t.Fatalf("info = %v", info)
	}
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hresp.StatusCode)
	}
}

func TestConcurrentRequests(t *testing.T) {
	ts, _ := newTestServer(t, 200, 6)
	done := make(chan error, 10)
	for g := 0; g < 10; g++ {
		go func(g int) {
			q := []float64{float64(g), 1, -1, 0.5, 0, 2}
			for i := 0; i < 20; i++ {
				resp := postJSON(t, ts.URL+"/v1/search", map[string]any{"vector": q, "k": 3})
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("status %d", resp.StatusCode)
					_ = resp.Body.Close()
					return
				}
				_ = resp.Body.Close()
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 10; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddItemRejectsOverflowingNorm: finite coordinates whose squared
// norm overflows float64 are the client's mistake (400), and the catalog
// — its size and its answers — is what it was before the request.
func TestAddItemRejectsOverflowingNorm(t *testing.T) {
	ts, _ := newTestServer(t, 30, 4)
	q := map[string]any{"vector": []float64{1, -1, 0.5, 2}, "k": 5}
	before := decode[searchResp](t, postJSON(t, ts.URL+"/v1/search", q))
	for _, mag := range []float64{1e155, 1e200, math.MaxFloat64} {
		resp := postJSON(t, ts.URL+"/v1/items", map[string]any{"vector": []float64{0.5, mag, 0.25, 1}})
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("add at %g: status %d, want 400", mag, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	if info := decode[map[string]any](t, resp); info["items"] != float64(30) {
		t.Fatalf("catalog holds %v items after the rejected adds, want 30", info["items"])
	}
	after := decode[searchResp](t, postJSON(t, ts.URL+"/v1/search", q))
	if fmt.Sprint(after.Results) != fmt.Sprint(before.Results) {
		t.Fatalf("answers changed: %v, before %v", after.Results, before.Results)
	}
	// The largest magnitude that squares is an ordinary item.
	resp = postJSON(t, ts.URL+"/v1/items", map[string]any{"vector": []float64{0.5, 1e150, 0.25, 1}})
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add at 1e150: status %d, want 201", resp.StatusCode)
	}
}

// TestFailedRebuildIsNotTheClientsFault: items that each square (‖p‖² =
// 1e308) but cannot share a shard are accepted until the rebuild that
// would fold them in fails; that add, and a delete forcing the same
// rebuild, answer 500 — not 400 or 404 — and leave the catalog alone.
func TestFailedRebuildIsNotTheClientsFault(t *testing.T) {
	ts, _ := newTestServer(t, 30, 4)
	h := math.Sqrt(1e308 / 4)
	huge := map[string]any{"vector": []float64{h, h, h, h}}
	accepted, status := 0, http.StatusCreated
	for ; accepted < 40 && status == http.StatusCreated; accepted++ {
		resp := postJSON(t, ts.URL+"/v1/items", huge)
		_ = resp.Body.Close()
		status = resp.StatusCode
	}
	if accepted--; status != http.StatusInternalServerError {
		t.Fatalf("after %d accepted adds: status %d, want 500", accepted, status)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/items/0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("delete forcing the same rebuild: status %d, want 500", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/v1/info"); err != nil {
		t.Fatal(err)
	}
	if info := decode[map[string]any](t, resp); info["items"] != float64(30+accepted) {
		t.Fatalf("catalog holds %v items, want %d", info["items"], 30+accepted)
	}
}
