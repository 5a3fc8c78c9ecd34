package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// This file is the server's production guard stack. Ordering (outermost
// first) is fixed in Handler():
//
//	observe → recoverPanics → shedLoad → withTimeout → mux
//
// observe stays outermost so every outcome — shed, timeout, panic — is
// traced, logged, and counted. recoverPanics sits above the shed so a
// panicking handler still releases its concurrency slot (the release is
// deferred) and the 500 is observed. shedLoad rejects before withTimeout
// so a shed request never arms a timer or touches the index. The
// deadline itself is enforced cooperatively: scan loops poll the request
// context every search.CheckStride items and return partial results with
// search.ErrDeadline, which the handlers map to 504 (or a 200 flagged
// "exact": false under Config.PartialOnDeadline).

// TimeoutHeader lets a client tighten (or, within Config.MaxTimeout,
// set) the per-request deadline in milliseconds.
const TimeoutHeader = "X-Timeout-Ms"

// guardedPath reports whether the guard stack (shedding, timeouts,
// per-request faults) applies to a path. Health, readiness, metrics,
// and pprof must keep answering even when the serving path is saturated
// — that is the entire point of having them.
func guardedPath(p string) bool {
	return strings.HasPrefix(p, "/v1/") && p != "/v1/healthz"
}

// SetReady flips the readiness gate served at /readyz and mirrored by
// the fexserve_ready gauge. NewWithConfig marks the server ready once
// the index is built; callers flip it back to false to drain before
// shutdown.
func (s *Server) SetReady(ready bool) {
	s.ready.Store(ready)
	if ready {
		s.readyGauge.Set(1)
	} else {
		s.readyGauge.Set(0)
	}
}

// Ready reports the current readiness state.
func (s *Server) Ready() bool { return s.ready.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// recoverPanics converts a handler panic into a 500 carrying the trace
// ID, counts it, and logs the stack. The response is only written when
// the handler had not started one (headers already sent cannot be
// unsent).
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			s.guardPanics.Inc()
			s.log.LogAttrs(r.Context(), slog.LevelError, "panic recovered",
				slog.String("traceId", traceIDFrom(r.Context())),
				slog.String("path", r.URL.Path),
				slog.String("panic", fmt.Sprint(rec)),
				slog.String("stack", string(debug.Stack())),
			)
			if sw, ok := w.(*statusWriter); !ok || sw.status == 0 {
				httpErrorCode(w, http.StatusInternalServerError, "panic",
					"internal error (trace %s)", traceIDFrom(r.Context()))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// shedLoad is the concurrency limiter: a buffered-channel semaphore of
// Config.MaxConcurrent slots over the guarded routes. A request that
// cannot take a slot immediately is shed with 429 and Retry-After — the
// index mutex serializes search work anyway, so queueing beyond the
// limit only grows tail latency.
func (s *Server) shedLoad(next http.Handler) http.Handler {
	if s.sem == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !guardedPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.sem <- struct{}{}:
			s.inflight.Add(1)
			defer func() {
				s.inflight.Add(-1)
				<-s.sem
			}()
			next.ServeHTTP(w, r)
		default:
			s.guardSheds.Inc()
			w.Header().Set("Retry-After", "1")
			httpErrorCode(w, http.StatusTooManyRequests, "shed",
				"server at concurrency limit %d, retry later", cap(s.sem))
		}
	})
}

// withTimeout arms the per-request deadline on guarded routes: the
// config default, overridden by a positive integer X-Timeout-Ms header,
// clamped to Config.MaxTimeout. A malformed header is a client error
// (400 bad_timeout), not a silent fallback.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !guardedPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		d := s.cfg.RequestTimeout
		if h := r.Header.Get(TimeoutHeader); h != "" {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil || ms <= 0 {
				httpErrorCode(w, http.StatusBadRequest, "bad_timeout",
					"invalid %s header %q: want a positive integer of milliseconds", TimeoutHeader, h)
				return
			}
			d = time.Duration(ms) * time.Millisecond
		}
		if max := s.cfg.MaxTimeout; max > 0 && (d <= 0 || d > max) {
			d = max
		}
		if d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// onGuardedCall fires the request-level fault hook for the handler's
// site (when a faults registry is configured) and maps an injected
// failure to a 500. It returns false when the handler must stop.
func (s *Server) onGuardedCall(w http.ResponseWriter, r *http.Request, site string) bool {
	hook := s.cfg.Faults.Hook(site)
	if hook == nil {
		return true
	}
	if err := hook.OnCall(); err != nil {
		httpErrorCode(w, http.StatusInternalServerError, "injected",
			"request failed: %v", err)
		return false
	}
	return true
}

// deadlineOK inspects the error from a context-aware scan. It returns
// true when the handler should write results: a clean completion, or a
// cancellation under PartialOnDeadline (counted as a partial answer).
// Otherwise it writes the 504 and returns false. Every cancellation —
// deadline, client disconnect, injected fault — counts as a timeout.
func (s *Server) deadlineOK(w http.ResponseWriter, r *http.Request, err error) bool {
	if err == nil {
		return true
	}
	s.guardTimeouts.Inc()
	if s.cfg.PartialOnDeadline {
		s.guardPartials.Inc()
		return true
	}
	httpErrorCode(w, http.StatusGatewayTimeout, "deadline",
		"scan cancelled before completion: %v", err)
	return false
}
