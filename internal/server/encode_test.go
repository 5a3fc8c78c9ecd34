package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"fexipro/internal/obs"
	"fexipro/internal/topk"
)

// The response types the handlers marshalled through encoding/json
// before searchReply.appendJSON: the reference its bytes are held to.
type resultJSON struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

type searchResponse struct {
	Results    []resultJSON      `json:"results"`
	TookMicros int64             `json:"tookMicros"`
	TraceID    string            `json:"traceId,omitempty"`
	Stats      obs.StageCounters `json:"stats"`
	Exact      bool              `json:"exact"`
}

// referenceJSON encodes sr the way writeJSON did, toResultsJSON's
// never-nil result slice included; a score JSON cannot carry is an
// encoder error and an empty body.
func referenceJSON(t *testing.T, sr searchReply) []byte {
	t.Helper()
	resp := searchResponse{
		Results:    make([]resultJSON, len(sr.results)),
		TookMicros: sr.tookMicros,
		TraceID:    sr.traceID,
		Stats:      sr.stats,
		Exact:      sr.exact,
	}
	for i, r := range sr.results {
		resp.Results[i] = resultJSON{ID: r.ID, Score: r.Score}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		if _, unsupported := err.(*json.UnsupportedValueError); !unsupported {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSearchReplyBytes: the appended response is byte for byte what
// encoding/json wrote for the same answer — across its float formats
// ('f' inside [1e-6, 1e21), 'e' outside with e-07 cleaned to e-7, −0,
// the smallest denormal, MaxFloat64), empty and nil result lists, the
// optional trace ID, the optional nodesVisited, and inexact answers.
func TestSearchReplyBytes(t *testing.T) {
	scores := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 999999999999999868928, 1e21, -1e21,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 123456789.125, 1, -3, 42, 1 << 53, 0.1, 1.0 / 3,
		8.500996084475206, 1e-10, 1.5e-300, 1e100,
	}
	var all []topk.Result
	for i, s := range scores {
		all = append(all, topk.Result{ID: i * 7919, Score: s})
	}
	stats := obs.StageCounters{
		Scanned: 67000, PrunedByLength: 1, PrunedByIntHead: 66000, PrunedByIntFull: 900,
		PrunedByIncremental: 0, PrunedByMonotone: 32, Pruned: 66933, FullProducts: 67, NodesVisited: 0,
	}
	withNodes := stats
	withNodes.NodesVisited = 12
	cases := map[string]searchReply{
		"every float format": {results: all, tookMicros: 97, traceID: "4bf92f3577b34da6a3ce929d0e0e4736", stats: stats, exact: true},
		"no results":         {results: []topk.Result{}, tookMicros: 0, traceID: "client-supplied_ID-1", exact: true},
		"nil results":        {tookMicros: 3, stats: stats, exact: true},
		"no trace ID":        {results: all[:2], tookMicros: 1 << 40, stats: stats, exact: true},
		"inexact":            {results: all[12:15], tookMicros: 250000, traceID: "t", stats: withNodes, exact: false},
		"negative IDs":       {results: []topk.Result{{ID: -1, Score: 2.5}, {ID: math.MaxInt, Score: -2.5}}, exact: true},
		"infinite score":     {results: []topk.Result{{ID: 1, Score: 2}, {ID: 2, Score: math.Inf(1)}}, traceID: "t", exact: true},
		"NaN score":          {results: []topk.Result{{ID: 1, Score: math.NaN()}}, exact: true},
	}
	for name, sr := range cases {
		want := referenceJSON(t, sr)
		got, ok := sr.appendJSON(nil)
		if !ok {
			got = nil
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
		if ok != (len(want) > 0) {
			t.Errorf("%s: appendJSON reports %v, encoding/json wrote %d bytes", name, ok, len(want))
		}
	}
	// Appending leaves what the buffer already held.
	sr := cases["no trace ID"]
	if got, _ := sr.appendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), referenceJSON(t, sr)...)) {
		t.Errorf("appendJSON onto a non-empty buffer wrote %s", got)
	}
}

// TestAddedReplyBytes: the answer to an add is what encoding/json's
// Encoder wrote for map[string]int{"id": n}, byte for byte.
func TestAddedReplyBytes(t *testing.T) {
	for _, id := range []int{0, 1, 9, 10, 99999, 100000, -1, math.MaxInt, math.MinInt} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]int{"id": id}); err != nil {
			t.Fatal(err)
		}
		if got := appendAddedJSON(nil, id); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("id %d: %q, want %q", id, got, want.Bytes())
		}
	}
}
