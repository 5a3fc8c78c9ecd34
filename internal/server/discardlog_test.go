package server

// In-package to see which logger a nil Config.Logger selects.

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/vec"
)

// offHandler is a slog.Handler that reports every level disabled and
// counts the records it is handed anyway.
type offHandler struct{ handled *atomic.Int64 }

func (offHandler) Enabled(context.Context, slog.Level) bool { return false }
func (h offHandler) Handle(context.Context, slog.Record) error {
	h.handled.Add(1)
	return nil
}
func (h offHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h offHandler) WithGroup(string) slog.Handler      { return h }

// TestDisabledLoggerSkipsRequestLine: a logger whose handler is not
// enabled at Info is never handed a request record, while the request
// metrics still advance; a nil Config.Logger selects such a handler.
// (The enabled line is pinned field by field in TestStructuredRequestLog.)
func TestDisabledLoggerSkipsRequestLine(t *testing.T) {
	items := vec.NewMatrix(50, 4)
	for i := range items.Data {
		items.Data[i] = float64(i%11) - 5
	}
	var handled atomic.Int64
	for name, logger := range map[string]*slog.Logger{
		"disabled handler": slog.New(offHandler{&handled}),
		"nil Logger":       nil,
	} {
		srv, err := NewWithConfig(items, core.Options{SVD: true, Int: true, Reduction: true}, Config{Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		if srv.log.Enabled(context.Background(), slog.LevelInfo) {
			t.Fatalf("%s: the server's logger takes Info lines", name)
		}
		const searches = 3
		for i := 0; i < searches; i++ {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search",
				strings.NewReader(`{"vector":[1,2,3,4],"k":3}`)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: search status %d: %s", name, rec.Code, rec.Body)
			}
		}
		rs := srv.requestSeries(seriesKey{http.MethodPost, "/v1/search", "2xx"})
		if got := rs.total.Value(); got != searches {
			t.Fatalf("%s: fexserve_http_requests_total = %d, want %d", name, got, searches)
		}
		if got := rs.dur.Count(); got != searches {
			t.Fatalf("%s: duration histogram holds %d observations, want %d", name, got, searches)
		}
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("disabled handler was handed %d records", n)
	}
}
