package server

import (
	"math"
	"net/http"
	"strconv"

	"fexipro/internal/obs"
	"fexipro/internal/topk"
)

// searchReply is what /v1/search and /v1/above answer with; its wire
// form is
//
//	{"results":[{"id":n,"score":x},…],"tookMicros":n,"traceId":"…","stats":{…},"exact":b}\n
//
// byte for byte what encoding/json writes for a struct of those fields
// (DESIGN.md §10.5; the reference struct lives in encode_test.go).
type searchReply struct {
	results    []topk.Result
	tookMicros int64
	traceID    string // omitted when empty; otherwise one obs.ValidTraceID accepts, so it needs no escaping
	stats      obs.StageCounters
	// exact is true only when the scan ran to completion: a deadline
	// expiry answered with partial results (Config.PartialOnDeadline)
	// reports false, and the result set may be missing items.
	exact bool
}

// appendJSON appends the reply's wire form to b. It reports false for a
// score JSON cannot carry (NaN, ±Inf — a finite query over finite items
// can still overflow a product), which encoding/json refuses as well.
func (sr *searchReply) appendJSON(b []byte) ([]byte, bool) {
	b = append(b, `{"results":[`...)
	for i, r := range sr.results {
		if isNaNOrInf(r.Score) {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"id":`...), int64(r.ID), 10)
		b = appendJSONFloat(append(b, `,"score":`...), r.Score)
		b = append(b, '}')
	}
	b = strconv.AppendInt(append(b, `],"tookMicros":`...), sr.tookMicros, 10)
	if sr.traceID != "" {
		b = append(append(append(b, `,"traceId":"`...), sr.traceID...), '"')
	}
	b = sr.stats.AppendJSON(append(b, `,"stats":`...))
	b = strconv.AppendBool(append(b, `,"exact":`...), sr.exact)
	return append(b, "}\n"...), true
}

// appendJSONFloat appends a finite f as encoding/json formats a float64:
// the shortest digits that round-trip, in 'f' form except below 1e-6 and
// from 1e21 up, where it is 'e' form with a two-digit exponent's leading
// zero dropped (1e-07 → 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// write sends the reply as the response body. A reply that cannot be
// encoded leaves the body empty, as a failed json.Encoder.Encode did.
func (sr *searchReply) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	buf := getBuf()
	defer putBuf(buf)
	var ok bool
	if buf.b, ok = sr.appendJSON(buf.b); ok {
		// Best-effort: the status is already on the wire.
		_, _ = w.Write(buf.b)
	}
}
