package obs

import (
	"crypto/rand"
	"encoding/hex"
	mrand "math/rand"
	"sync"
)

// TraceHeader is the HTTP header carrying the request trace ID, both
// inbound (propagated from callers) and outbound (echoed on responses).
const TraceHeader = "X-Trace-Id"

// NewTraceID returns a 16-byte random trace ID in lowercase hex,
// matching the W3C trace-id shape. It never fails: if the OS entropy
// source errors it falls back to a process-local PRNG.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		fallbackMu.Lock()
		for i := range b {
			b[i] = byte(fallback.Intn(256))
		}
		fallbackMu.Unlock()
	}
	return hex.EncodeToString(b[:])
}

var (
	fallbackMu sync.Mutex
	fallback   = mrand.New(mrand.NewSource(0x5eed))
)

// ValidTraceID reports whether s is a plausible propagated trace ID:
// 1–64 characters from [0-9a-zA-Z_-]. Anything else is replaced with a
// fresh ID rather than reflected into logs.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
