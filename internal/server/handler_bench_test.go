package server_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/server"
	"fexipro/internal/vec"
)

// nopWriter is a ResponseWriter that keeps nothing, so the measurements
// below see the handler's own work and not a recorder's buffer.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) WriteHeader(int)             {}
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// searchFixture is the benchmark's serve-read shape in small: an F-SIR
// server over n items of d = 50 and pre-encoded {"k":10,"vector":[…]}
// bodies with 17-digit floats.
func searchFixture(tb testing.TB, n, queries int) (http.Handler, [][]byte) {
	tb.Helper()
	const d = 50
	rng := rand.New(rand.NewSource(24))
	items := vec.NewMatrix(n, d)
	for i := range items.Data {
		items.Data[i] = rng.NormFloat64()
	}
	srv, err := server.New(items, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, queries)
	for i := range bodies {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		if bodies[i], err = json.Marshal(map[string]any{"vector": q, "k": 10}); err != nil {
			tb.Fatal(err)
		}
	}
	return srv.Handler(), bodies
}

// BenchmarkHandlerSearch times one POST /v1/search through the whole
// middleware stack at d = 50, k = 10; the requests are built outside the
// timer.
func BenchmarkHandlerSearch(b *testing.B) {
	h, bodies := searchFixture(b, 2000, 64)
	reqs := make([]*http.Request, b.N)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(bodies[i%len(bodies)]))
	}
	w := &nopWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for _, r := range reqs {
		h.ServeHTTP(w, r)
	}
}

// TestHandlerSearchAllocations pins what one search costs the handler in
// allocations, request construction excluded: encoding/json's reflection
// decode and encode made it 57, the scanner and appender left 15, the
// in-place query transform leaves 14, and the bound is 14, so one more
// allocation on the search path fails here. Under the race detector,
// whose instrumentation moves values to the heap, the count means nothing.
func TestHandlerSearchAllocations(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts differ under -race")
	}
	h, bodies := searchFixture(t, 500, 1)
	w := &nopWriter{h: http.Header{}}
	const runs = 200
	reqs := make([]*http.Request, 0, runs+1) // AllocsPerRun warms up with one extra call
	for len(reqs) < cap(reqs) {
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(bodies[0])))
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(w, reqs[next])
		next++
	})
	if got > 14 {
		t.Fatalf("one /v1/search allocates %.0f times in the handler, want ≤ 14", got)
	}
}

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
