package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/vec"
)

// FuzzDecodeRequest's committed corpus, in two halves. canonicalSeeds
// are shapes the scanner must take: Go's map order with 17-digit floats
// (the repository benchmark's body), Python's spacing, struct order,
// above-t, exponents, -0, the empty cases, trailing bytes.
var canonicalSeeds = []string{
	`{"k":10,"vector":[0.49671415301123267,-0.13826430117118466,1.5230298564080254]}`,
	`{"vector": [0.25, -1.5, 3], "k": 2}`,
	`{"vector":[1,2,3],"k":2,"threshold":0.5}`,
	"\n\t {\r\n\"threshold\" : -2.5e-1 ,\"vector\" : [ 1 , 2 , 3 ] }\n",
	`{"vector":[1e-05,1E+3,-0],"k":1}`,
	`{"vector":[],"k":1}`,
	`{"vector":[1,2,3]}`,
	`{}`,
	`{"vector":[1,2,3],"k":2} junk`,
	`{"vector":[1,2,3],"k":-0}`,
	`{"vector":[4.9e-324,1.7976931348623157e308,1e-400],"k":1}`,
}

// declinedSeeds are bodies the scanner must leave to encoding/json: the
// literals strconv would take and JSON does not, then the shapes only the
// standard decoder has ever defined an answer for.
var declinedSeeds = []string{
	`{"vector":[0x1p-2,0,0],"k":1}`,
	`{"vector":[Inf,0,0],"k":1}`,
	`{"vector":[NaN,0,0],"k":1}`,
	`{"vector":[1_0,0,0],"k":1}`,
	`{"vector":[+1,0,0],"k":1}`,
	`{"vector":[.5,0,0],"k":1}`,
	`{"vector":[5.,0,0],"k":1}`,
	`{"vector":[01,0,0],"k":1}`,
	`{"vector":[-,0,0],"k":1}`,
	`{"vector":[1e999,0,0],"k":1}`,
	`{"vector":[1e,0,0],"k":1}`,
	`{"vector":[1,2,3],"k":10.0}`,
	`{"vector":[1,2,3],"k":1e1}`,
	`{"vector":[1,2,3],"k":9223372036854775808}`,
	`{"vector":[1,2,3],"k":01}`,
	`{"vector":[1,2,3],"threshold":1e999}`,
	`{"vector":[1,2,3],"vector":[4,5,6],"k":1}`,
	`{"k":1,"k":2,"vector":[1,2,3]}`,
	`{"Vector":[1,2,3],"K":2}`,
	`{"vector":[1,2,3],"threshold":null}`,
	`{"vector":null,"k":1}`,
	`{"vector":[1,2,3],"k":null}`,
	`{"vector":[1,2,3],"k":"2"}`,
	`{"vector":[1,null,3],"k":1}`,
	`{"vector":[1,2,3],"k":1,"extra":{"nested":[1,{"a":"}"}]}}`,
	`{"vector":"oops","threshold":1}`,
	`{"vector":[1,2,3],"k":1,}`,
	`{"vector":[1,2,3,],"k":1}`,
	`{"vector":[1,2,3]"k":1}`,
	`{"vector":[1 2 3],"k":1}`,
	`{"vector":[1,2,3],"k":1`,
	`{"k":10,"vector":[` + strings.TrimSuffix(strings.Repeat("0.5,", 50), ","),
	`[1,2,3]`,
	`null`,
	`not json at all`,
	``,
}

// parentAnswer is what the parent of the scanner answered a /v1/search
// or /v1/above body with — encoding/json's decoder straight into the
// request struct, then the handler's checks in their order — as status
// and error message ("" with 200).
func parentAnswer(route string, body []byte, dim, maxK int) (int, string) {
	var req searchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return 400, fmt.Sprintf("invalid JSON: %v", err)
	}
	if len(req.Vector) != dim {
		return 400, fmt.Sprintf("vector has %d dims, index has %d", len(req.Vector), dim)
	}
	for i, v := range req.Vector {
		if isNaNOrInf(v) {
			return 400, fmt.Sprintf("vector[%d] is not finite", i)
		}
	}
	switch {
	case route == "/v1/above" && (req.Threshold == nil || isNaNOrInf(*req.Threshold)):
		return 400, "a finite threshold is required"
	case route == "/v1/search" && req.K <= 0:
		return 400, fmt.Sprintf("k must be positive, got %d", req.K)
	case route == "/v1/search" && req.K > maxK:
		return 400, fmt.Sprintf("k %d exceeds maximum %d", req.K, maxK)
	}
	return 200, ""
}

// FuzzDecodeRequest is the scanner's licence: whenever scanRequest
// accepts a body, for either key set, encoding/json accepts the same
// bytes and produces the same request, bit for bit; and whatever the body
// — accepted, declined, malformed — the two read routes answer it with
// the status, code and message the encoding/json-only parent gave.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range append(canonicalSeeds, declinedSeeds...) {
		f.Add([]byte(seed))
	}
	const dim, maxK = 3, 8
	items := vec.NewMatrix(20, dim)
	for i := range items.Data {
		items.Data[i] = float64(i%7) - 3
	}
	srv, err := NewWithConfig(items, core.Options{SVD: true, Int: true, Reduction: true}, Config{MaxK: maxK})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, allow := range []reqKeys{searchKeys, itemKeys} {
			got := searchRequest{K: -1} // a declined or key-less scan must not leave this behind
			if !scanRequest(body, allow, dim, &got) {
				if got.K != -1 || got.Vector != nil || got.Threshold != nil {
					t.Fatalf("keys %b: a declined scan wrote %+v", allow, got)
				}
				continue
			}
			var want searchRequest
			if err := unmarshalRequest(body, allow, &want); err != nil {
				t.Fatalf("keys %b: the scanner accepted %q, encoding/json says %v", allow, body, err)
			}
			if err := sameRequest(got, want); err != nil {
				t.Fatalf("keys %b: %q: %v", allow, body, err)
			}
		}
		for _, route := range []string{"/v1/search", "/v1/above"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			wantStatus, wantMsg := parentAnswer(route, body, dim, maxK)
			if rec.Code != wantStatus {
				t.Fatalf("%s %q: status %d, the parent answered %d %q", route, body, rec.Code, wantStatus, wantMsg)
			}
			if wantStatus == 200 {
				continue
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s %q: error body %q: %v", route, body, rec.Body, err)
			}
			if e.Code != "bad_request" || e.Error != wantMsg {
				t.Fatalf("%s %q: answered %q %q, the parent answered bad_request %q", route, body, e.Code, e.Error, wantMsg)
			}
		}
	})
}

// sameRequest compares two decoded requests field for field: the
// vector's nil-ness, length and float bits, k, and the threshold's
// nil-ness and bits.
func sameRequest(got, want searchRequest) error {
	if (got.Vector == nil) != (want.Vector == nil) || len(got.Vector) != len(want.Vector) {
		return fmt.Errorf("vector %v, encoding/json decodes %v", got.Vector, want.Vector)
	}
	for i := range want.Vector {
		if math.Float64bits(got.Vector[i]) != math.Float64bits(want.Vector[i]) {
			return fmt.Errorf("vector[%d] = %x, encoding/json decodes %x", i, got.Vector[i], want.Vector[i])
		}
	}
	if got.K != want.K {
		return fmt.Errorf("k = %d, encoding/json decodes %d", got.K, want.K)
	}
	if (got.Threshold == nil) != (want.Threshold == nil) {
		return fmt.Errorf("threshold %v, encoding/json decodes %v", got.Threshold, want.Threshold)
	}
	if want.Threshold != nil && math.Float64bits(*got.Threshold) != math.Float64bits(*want.Threshold) {
		return fmt.Errorf("threshold = %x, encoding/json decodes %x", *got.Threshold, *want.Threshold)
	}
	return nil
}

// TestScanRequestTakesTheCanonicalShapes: the fuzz target proves the
// scanner never disagrees with encoding/json; this proves it is not
// vacuous — the bodies clients actually send stay on the fast path, and
// each trap is declined rather than decoded.
func TestScanRequestTakesTheCanonicalShapes(t *testing.T) {
	var req searchRequest
	for _, seed := range canonicalSeeds {
		if !scanRequest([]byte(seed), searchKeys, 3, &req) {
			t.Errorf("scanRequest declined %q", seed)
		}
	}
	for _, seed := range declinedSeeds {
		if scanRequest([]byte(seed), searchKeys, 3, &req) {
			t.Errorf("scanRequest took %q", seed)
		}
	}
	if scanRequest([]byte(`{"vector":[1,2,3],"k":2}`), itemKeys, 3, &req) {
		t.Error("the item key set decoded k")
	}
	if !scanRequest([]byte(`{"vector":[1,2,3]}`), itemKeys, 3, &req) || len(req.Vector) != 3 {
		t.Error("the item key set declined a bare vector")
	}
}
