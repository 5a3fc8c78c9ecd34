package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
)

// This file is the request side of the three body-carrying routes
// (DESIGN.md §10.5): the body is read whole under the size cap into a
// pooled buffer, a one-pass scanner decodes the canonical shape every
// client library produces, and whatever the scanner declines goes to
// encoding/json, which stays the arbiter of validity and the author of
// every error message.

const (
	// maxBodyBytes caps a request body; a larger one is answered 413.
	maxBodyBytes = 1 << 20
	// maxPooledBytes is the largest buffer returned to bufPool: a larger
	// one is left to the collector, so one hostile request cannot pin a
	// megabyte per P.
	maxPooledBytes = 64 << 10
)

// byteBuf is a pooled byte slice for one request body or one response.
type byteBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(byteBuf) }}

func getBuf() *byteBuf { return bufPool.Get().(*byteBuf) }

func putBuf(bb *byteBuf) {
	if cap(bb.b) > maxPooledBytes {
		return
	}
	bb.b = bb.b[:0]
	bufPool.Put(bb)
}

// reqKeys is a set of request-object keys: the ones a route's request
// type declares, so the ones the scanner may decode for it.
type reqKeys uint8

const (
	keyVector reqKeys = 1 << iota
	keyK
	keyThreshold

	searchKeys = keyVector | keyK | keyThreshold // searchRequest: /v1/search and /v1/above
	itemKeys   = keyVector                       // POST /v1/items; k and threshold are unknown keys there
)

type searchRequest struct {
	Vector    []float64 `json:"vector"`
	K         int       `json:"k"`
	Threshold *float64  `json:"threshold"`
}

// decodeVector reads and decodes the request body into req and checks
// the vector against the index; on any failure it has written the error
// response and returns false. allow is the route's key set.
func (s *Server) decodeVector(w http.ResponseWriter, r *http.Request, allow reqKeys, req *searchRequest) bool {
	buf := getBuf()
	defer putBuf(buf)
	body := bytes.NewBuffer(buf.b)
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	buf.b = body.Bytes() // the pool keeps what the read grew
	if err == nil && !scanRequest(buf.b, allow, s.dim, req) {
		err = unmarshalRequest(buf.b, allow, req)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return false
	}
	if len(req.Vector) != s.dim {
		httpError(w, http.StatusBadRequest, "vector has %d dims, index has %d", len(req.Vector), s.dim)
		return false
	}
	for i, v := range req.Vector {
		if isNaNOrInf(v) {
			httpError(w, http.StatusBadRequest, "vector[%d] is not finite", i)
			return false
		}
	}
	return true
}

// unmarshalRequest decodes body with encoding/json — the Decoder, so
// bytes after the first value stay ignored — into the route's request
// type: searchRequest, or for itemKeys a vector alone, where k and
// threshold are unknown keys of any type.
func unmarshalRequest(body []byte, allow reqKeys, req *searchRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if allow != itemKeys {
		return dec.Decode(req)
	}
	var item struct {
		Vector []float64 `json:"vector"`
	}
	err := dec.Decode(&item)
	req.Vector = item.Vector
	return err
}

// scanRequest decodes body in one pass when it is, after optional
// leading whitespace, a JSON object whose keys are distinct, spelled
// exactly "vector", "k" or "threshold", and in allow, with values
//
//	vector     an array of JSON numbers
//	k          an integer literal: -?(0|[1-9][0-9]*)
//	threshold  a JSON number
//
// in any order, with JSON whitespace between tokens. Everything after
// the closing brace is ignored, as json.Decoder ignores it. It reports
// false, leaving req alone, on anything else — another key or value
// type, an escape, null, a literal strconv refuses — so accepting means
// encoding/json would have produced the same req (FuzzDecodeRequest).
// dim pre-sizes the vector.
func scanRequest(body []byte, allow reqKeys, dim int, req *searchRequest) bool {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	var (
		out  searchRequest
		seen reqKeys
	)
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		*req = out
		return true
	}
	for {
		if i == len(body) || body[i] != '"' {
			return false
		}
		n := bytes.IndexByte(body[i+1:], '"')
		if n < 0 {
			return false
		}
		var key reqKeys
		switch string(body[i+1 : i+1+n]) {
		case "vector":
			key = keyVector
		case "k":
			key = keyK
		case "threshold":
			key = keyThreshold
		}
		if key&allow == 0 || key&seen != 0 {
			return false
		}
		seen |= key
		i = skipSpace(body, i+n+2)
		if i == len(body) || body[i] != ':' {
			return false
		}
		i = skipSpace(body, i+1)

		switch key {
		case keyVector:
			if i == len(body) || body[i] != '[' {
				return false
			}
			out.Vector = make([]float64, 0, dim)
			i = skipSpace(body, i+1)
			for i < len(body) && body[i] != ']' {
				if len(out.Vector) > 0 {
					if body[i] != ',' {
						return false
					}
					i = skipSpace(body, i+1)
				}
				v, end := scanFloat(body, i)
				if end < 0 {
					return false
				}
				out.Vector = append(out.Vector, v)
				i = skipSpace(body, end)
			}
			if i == len(body) {
				return false
			}
			i++
		case keyK:
			end, integer := scanNumber(body, i)
			if end < 0 || !integer {
				return false
			}
			k, err := strconv.ParseInt(string(body[i:end]), 10, 0)
			if err != nil {
				return false
			}
			out.K = int(k)
			i = end
		case keyThreshold:
			t, end := scanFloat(body, i)
			if end < 0 {
				return false
			}
			out.Threshold = &t
			i = end
		}

		i = skipSpace(body, i)
		if i == len(body) {
			return false
		}
		switch body[i] {
		case '}':
			*req = out
			return true
		case ',':
			i = skipSpace(body, i+1)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first byte of b at or after i that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanFloat parses the JSON number at b[i:] and returns it with the
// index after it, or -1 when there is no such number or strconv refuses
// it (out of range).
func scanFloat(b []byte, i int) (float64, int) {
	end, _ := scanNumber(b, i)
	if end < 0 {
		return 0, -1
	}
	v, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return 0, -1
	}
	return v, end
}

// scanNumber checks b[i:] against the JSON number grammar
//
//	-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
//
// and returns the end of the longest match, or -1 when there is none,
// and whether the match has neither fraction nor exponent. strconv alone
// will not do: it also takes hex floats, "Inf", "NaN", underscores and a
// leading "+", "." or "0". The caller requires a delimiter after the
// match, which is what turns "01" or "1.5.2" away.
func scanNumber(b []byte, i int) (end int, integer bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1, false
		}
		i = j
	}
	return i, integer
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
