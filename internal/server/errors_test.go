package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/obs"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

// errorBody mirrors the JSON shape of every non-2xx answer.
type errorBody struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	TraceID string `json:"traceId"`
}

// TestErrorPaths is the table over every client-error mapping: each row
// sends one malformed request and checks the HTTP status, the stable
// machine-readable code, and that the JSON body carries the same trace
// ID as the response header.
func TestErrorPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := vec.NewMatrix(50, 4)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	srv, err := server.NewWithConfig(items, core.Options{SVD: true}, server.Config{MaxK: 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A valid body 14 bytes past the 1 MiB cap: small enough an overage
	// that the HTTP server drains it instead of resetting the connection.
	oversize := `{"vector":[` + strings.Repeat("1,", 1<<19) + `1]}`

	cases := []struct {
		name       string
		method     string
		path       string
		body       string // raw JSON (or garbage)
		header     map[string]string
		wantStatus int
		wantCode   string
		wantSubstr string // substring of the error message
	}{
		{
			name:   "search invalid JSON",
			method: "POST", path: "/v1/search", body: `{"vector": [1,2`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "invalid JSON",
		},
		{
			name:   "search wrong JSON type",
			method: "POST", path: "/v1/above", body: `{"vector": "oops", "threshold": 1}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "invalid JSON",
		},
		{
			name:   "search dim mismatch",
			method: "POST", path: "/v1/search", body: `{"vector": [1,2,3], "k": 5}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "3 dims, index has 4",
		},
		{
			name:   "search overflowing literal",
			method: "POST", path: "/v1/search", body: `{"vector": [1e999,0,0,0], "k": 5}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "invalid JSON",
		},
		{
			name:   "search k zero",
			method: "POST", path: "/v1/search", body: `{"vector": [1,2,3,4], "k": 0}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "k must be positive",
		},
		{
			name:   "search k negative",
			method: "POST", path: "/v1/search", body: `{"vector": [1,2,3,4], "k": -3}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "k must be positive",
		},
		{
			name:   "search k above MaxK",
			method: "POST", path: "/v1/search", body: `{"vector": [1,2,3,4], "k": 11}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "exceeds maximum 10",
		},
		{
			name:   "above missing threshold",
			method: "POST", path: "/v1/above", body: `{"vector": [1,2,3,4]}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "threshold",
		},
		{
			name:   "above dim mismatch",
			method: "POST", path: "/v1/above", body: `{"vector": [], "threshold": 1.5}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "0 dims",
		},
		{
			name:   "add invalid JSON",
			method: "POST", path: "/v1/items", body: `not json at all`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "invalid JSON",
		},
		{
			name:   "add dim mismatch",
			method: "POST", path: "/v1/items", body: `{"vector": [1]}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "1 dims, index has 4",
		},
		{
			name:   "search oversize body",
			method: "POST", path: "/v1/search", body: oversize,
			wantStatus: 413, wantCode: "too_large", wantSubstr: "exceeds 1048576 bytes",
		},
		{
			name:   "above oversize body",
			method: "POST", path: "/v1/above", body: oversize,
			wantStatus: 413, wantCode: "too_large", wantSubstr: "exceeds 1048576 bytes",
		},
		{
			name:   "add oversize body",
			method: "POST", path: "/v1/items", body: oversize,
			wantStatus: 413, wantCode: "too_large", wantSubstr: "exceeds 1048576 bytes",
		},
		{
			name:   "add ignores k of any type",
			method: "POST", path: "/v1/items", body: `{"vector": [1], "k": "ten", "threshold": []}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "1 dims, index has 4",
		},
		{
			name:   "add overflowing literal",
			method: "POST", path: "/v1/items", body: `{"vector": [1e999,0,0,0]}`,
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "invalid JSON",
		},
		{
			name:   "delete non-numeric id",
			method: "DELETE", path: "/v1/items/abc", body: "",
			wantStatus: 400, wantCode: "bad_request", wantSubstr: "bad item id",
		},
		{
			name:   "delete unknown id",
			method: "DELETE", path: "/v1/items/99999", body: "",
			wantStatus: 404, wantCode: "not_found",
		},
		{
			name:   "timeout header non-numeric",
			method: "POST", path: "/v1/search", body: `{"vector": [1,2,3,4], "k": 5}`,
			header:     map[string]string{server.TimeoutHeader: "soon"},
			wantStatus: 400, wantCode: "bad_timeout", wantSubstr: "X-Timeout-Ms",
		},
		{
			name:   "timeout header zero",
			method: "POST", path: "/v1/search", body: `{"vector": [1,2,3,4], "k": 5}`,
			header:     map[string]string{server.TimeoutHeader: "0"},
			wantStatus: 400, wantCode: "bad_timeout",
		},
		{
			name:   "timeout header negative",
			method: "POST", path: "/v1/above", body: `{"vector": [1,2,3,4], "threshold": 1}`,
			header:     map[string]string{server.TimeoutHeader: "-20"},
			wantStatus: 400, wantCode: "bad_timeout",
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var body errorBody
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, raw)
			}
			if body.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q (body %s)", body.Code, tc.wantCode, raw)
			}
			if body.Error == "" {
				t.Fatal("error message is empty")
			}
			if tc.wantSubstr != "" && !strings.Contains(body.Error, tc.wantSubstr) {
				t.Fatalf("error %q does not contain %q", body.Error, tc.wantSubstr)
			}
			headerTrace := resp.Header.Get(obs.TraceHeader)
			if headerTrace == "" {
				t.Fatal("response has no trace ID header")
			}
			if body.TraceID != headerTrace {
				t.Fatalf("body traceId %q != header %q", body.TraceID, headerTrace)
			}
		})
	}
}

// TestErrorsDoNotPoisonServer: after the full gauntlet of malformed
// requests, a well-formed search still answers 200 exact results.
func TestErrorsDoNotPoisonServer(t *testing.T) {
	ts, _ := newTestServer(t, 60, 4)
	bad := []string{
		`{"vector": [1,2`, `{"vector": [1], "k": 1}`, `{"vector": [1,2,3,4], "k": -1}`,
	}
	for _, b := range bad {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("malformed request got %d, want 400", resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/search", map[string]any{"vector": []float64{1, 0, 0, 0}, "k": 3})
	if resp.StatusCode != 200 {
		t.Fatalf("good request after errors got %d", resp.StatusCode)
	}
	out := decode[searchResp](t, resp)
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
}
