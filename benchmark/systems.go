package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"fexipro"
	"fexipro/internal/core"
	"fexipro/internal/server"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// reply is what one op returned.
type reply struct {
	at    time.Time     // when the system's call began
	took  time.Duration // time inside the call, monotonic clock
	res   []topk.Result // a search's results, when decoding was asked for
	id    int           // an add's assigned catalog ID
	bytes int           // response body length (served systems)
	err   error
}

// client issues one op and waits for its reply. decode asks a search to
// parse its results; without it a served search only checks the status,
// so client-side work stays out of the measured throughput.
type client func(o op, decode bool) reply

// system is a workload's program under test as set-up leaves it.
type system struct {
	// client returns an independent caller; callers may run
	// concurrently with each other.
	client func() client
	// items reports the live item count the system itself believes in,
	// or -1 when it exposes none.
	items func() (int, error)
	close func() error
}

// publicMatrix copies m into the public API's matrix type.
func publicMatrix(m *vec.Matrix) *fexipro.Matrix {
	out := fexipro.NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// newLibSystem is the lib-* set-up: the public constructor with every
// option at its default, one caller.
func newLibSystem(items *fexipro.Matrix, queries *vec.Matrix) (*system, error) {
	s, err := fexipro.New(items, fexipro.Options{})
	if err != nil {
		return nil, err
	}
	call := func(o op, decode bool) reply {
		q := queries.Row(o.arg)
		t0 := time.Now()
		res := s.Search(q, topK)
		r := reply{at: t0, took: time.Since(t0)}
		if decode {
			r.res = make([]topk.Result, len(res))
			for i, x := range res {
				r.res[i] = topk.Result{ID: x.ID, Score: x.Score}
			}
		}
		return r
	}
	return &system{
		client: func() client { return call },
		items:  func() (int, error) { return -1, nil },
		close:  func() error { return nil },
	}, nil
}

// bodies holds the pre-encoded JSON request bodies, so encoding them is
// neither timed nor counted into index_mib.
type bodies struct {
	search [][]byte // by query row
	add    [][]byte // by pool row
}

func encodeBodies(in *inputs) (*bodies, error) {
	b := &bodies{}
	for i := 0; i < in.queries.Rows; i++ {
		body, err := json.Marshal(map[string]any{"vector": in.queries.Row(i), "k": topK})
		if err != nil {
			return nil, err
		}
		b.search = append(b.search, body)
	}
	for i := in.n; i < in.all.Rows; i++ {
		body, err := json.Marshal(map[string]any{"vector": in.all.Row(i)})
		if err != nil {
			return nil, err
		}
		b.add = append(b.add, body)
	}
	return b, nil
}

// request builds the HTTP request of one op against base ("" for the
// in-process handler).
func (b *bodies) request(base string, o op) *http.Request {
	switch o.kind {
	case opAdd:
		return httptest.NewRequest(http.MethodPost, base+"/v1/items", bytes.NewReader(b.add[o.arg]))
	case opDelete:
		return httptest.NewRequest(http.MethodDelete, base+"/v1/items/"+strconv.Itoa(o.arg), nil)
	default:
		return httptest.NewRequest(http.MethodPost, base+"/v1/search", bytes.NewReader(b.search[o.arg]))
	}
}

// memWriter is the in-memory http.ResponseWriter the handler writes to.
type memWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }

func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *memWriter) reset() {
	clear(w.header)
	w.code = 0
	w.body.Reset()
}

// wantStatus is the success status of each route.
var wantStatus = map[opKind]int{opSearch: http.StatusOK, opAdd: http.StatusCreated, opDelete: http.StatusNoContent}

// parseReply turns one HTTP exchange into a reply: any other status
// than the route's success status is a failed op.
func parseReply(o op, code int, body []byte, t0 time.Time, took time.Duration, decode bool) reply {
	r := reply{at: t0, took: took, bytes: len(body)}
	if code != wantStatus[o.kind] {
		r.err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
		return r
	}
	switch {
	case o.kind == opAdd:
		var added struct {
			ID int `json:"id"`
		}
		r.err = json.Unmarshal(body, &added)
		r.id = added.ID
	case o.kind == opSearch && decode:
		var found struct {
			Results []struct {
				ID    int     `json:"id"`
				Score float64 `json:"score"`
			} `json:"results"`
			Exact bool `json:"exact"`
		}
		if r.err = json.Unmarshal(body, &found); r.err == nil && !found.Exact {
			r.err = fmt.Errorf("inexact answer")
		}
		r.res = make([]topk.Result, len(found.Results))
		for i, x := range found.Results {
			r.res[i] = topk.Result{ID: x.ID, Score: x.Score}
		}
	}
	return r
}

// served is an in-process fexserve: the server, its middleware-wrapped
// handler and the data dir it owns (empty without persistence).
type served struct {
	srv     *server.Server
	handler http.Handler
	dir     string
	b       *bodies
}

// newServed is the serve-* set-up. dir, when non-empty, must not exist:
// the server then builds, checkpoints into it and logs every mutation
// with an fsync per append (the production default).
func newServed(in *inputs, b *bodies, dir string) (*served, error) {
	opts, err := core.OptionsForVariant("F-SIR")
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Shards: 1}
	if dir != "" {
		cfg.DataDir, cfg.WALSyncEvery = dir, 1
	}
	srv, err := server.NewWithConfig(in.items, opts, cfg)
	if err != nil {
		return nil, err
	}
	return &served{srv: srv, handler: srv.Handler(), dir: dir, b: b}, nil
}

// client delivers each op as a real *http.Request to the handler with
// an in-memory response writer; only ServeHTTP is timed.
func (s *served) client() client {
	w := &memWriter{header: http.Header{}}
	return func(o op, decode bool) reply {
		req := s.b.request("", o)
		w.reset()
		t0 := time.Now()
		s.handler.ServeHTTP(w, req)
		took := time.Since(t0)
		return parseReply(o, w.code, w.body.Bytes(), t0, took, decode)
	}
}

// items asks GET /v1/info for the live item count.
func (s *served) items() (int, error) {
	w := &memWriter{header: http.Header{}}
	s.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	var info struct {
		Items int `json:"items"`
	}
	if w.code != http.StatusOK {
		return 0, fmt.Errorf("info: status %d", w.code)
	}
	err := json.Unmarshal(w.body.Bytes(), &info)
	return info.Items, err
}

// close releases the WAL and deletes the data dir.
func (s *served) close() error {
	if s.dir == "" {
		return nil
	}
	err := s.srv.ClosePersistence()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

func (s *served) system() *system {
	return &system{client: s.client, items: s.items, close: s.close}
}

// loopbackClient sends the same requests through net/http over one
// keep-alive connection to base; the whole exchange is timed.
func loopbackClient(hc *http.Client, base string, b *bodies) client {
	return func(o op, decode bool) reply {
		req := b.request(base, o)
		req.RequestURI = "" // client requests must not carry one
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return reply{at: t0, took: time.Since(t0), err: err}
		}
		body, err := io.ReadAll(resp.Body)
		took := time.Since(t0)
		_ = resp.Body.Close() // fully read; nothing left to report
		if err != nil {
			return reply{at: t0, took: took, err: err}
		}
		return parseReply(o, resp.StatusCode, body, t0, took, decode)
	}
}
