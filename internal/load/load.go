// Package load is an open-loop HTTP traffic generator for fexserve: it
// schedules query arrivals from a configured rate — independent of how
// fast the server answers, so a slow server accumulates in-flight work
// instead of silently throttling the offered load (the coordinated-
// omission trap of closed-loop benchmarks) — and reports client-side
// latency quantiles and SLO burn in a JSON schema diffable against the
// repo's benchmark dumps.
//
// The query mix is a zipfian distribution over a large synthetic user
// population: each arrival draws a user ID, derives that user's query
// vector deterministically from the run seed, and POSTs /v1/search.
// Optionally every Nth arrival is instead a catalog mutation
// (alternating POST /v1/items and DELETE /v1/items/{id}), and burst
// phases periodically multiply the arrival rate to probe shedding and
// tail behavior under overload.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"fexipro/internal/obs"
)

// Schema identifies the Report wire format.
const Schema = "fexload/v1"

// Config describes one load run. Target and Dim are required; zero
// values elsewhere select the documented defaults.
type Config struct {
	// Target is the base URL of a running fexserve (no trailing slash).
	Target string
	// Dim is the query dimensionality; must match the target index.
	Dim int

	// Rate is the offered load in arrivals per second (default 100).
	Rate float64
	// Duration is how long arrivals are generated (default 5s).
	Duration time.Duration

	// Users is the synthetic user population size (default 1e6). Query
	// popularity over it is zipfian: user 0 is the head of the
	// distribution, the tail is drawn rarely.
	Users int
	// ZipfS is the zipf skew exponent, > 1 (default 1.2).
	ZipfS float64
	// K is the top-k of every search (default 10).
	K int

	// MutateEvery makes every Nth arrival a catalog mutation instead of
	// a search, alternating adds and deletes; 0 disables mutations.
	MutateEvery int

	// BurstEvery/BurstDur/BurstFactor define periodic burst phases: for
	// BurstDur out of every BurstEvery, the arrival rate is multiplied
	// by BurstFactor. BurstEvery 0 disables bursts.
	BurstEvery  time.Duration
	BurstDur    time.Duration
	BurstFactor float64

	// MaxInFlight bounds concurrently outstanding requests (default
	// 1024). An arrival that finds the limit exhausted is counted as
	// shed by the CLIENT — offered load the server never saw — and is
	// not retried (open loop).
	MaxInFlight int
	// Timeout is the per-request client timeout (default 2s).
	Timeout time.Duration

	// SLOs are the client-side latency objectives reported as burn
	// counts over the completed searches (default 10ms, 50ms, 250ms).
	SLOs []time.Duration

	// Seed makes the run reproducible: the arrival mix, the zipf draws,
	// and every synthetic query vector derive from it (default 1).
	Seed int64

	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	//lint:ignore apiparity test-only injection surface, deliberately unreachable from flags
	Client *http.Client

	// ownsClient marks a Client that applyDefaults built: Run closes
	// its idle connections on the way out so transport keep-alive
	// goroutines do not outlive the run. Caller-provided clients are
	// left alone.
	ownsClient bool
}

func (c *Config) applyDefaults() error {
	if c.Target == "" {
		return fmt.Errorf("load: Target is required")
	}
	if c.Dim <= 0 {
		return fmt.Errorf("load: Dim must be positive, got %d", c.Dim)
	}
	if c.Rate <= 0 {
		c.Rate = 100
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Users <= 0 {
		c.Users = 1_000_000
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if len(c.SLOs) == 0 {
		c.SLOs = []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 250 * time.Millisecond}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BurstEvery > 0 {
		if c.BurstDur <= 0 || c.BurstDur > c.BurstEvery {
			c.BurstDur = c.BurstEvery / 5
		}
		if c.BurstFactor <= 1 {
			c.BurstFactor = 4
		}
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.Timeout}
		c.ownsClient = true
	}
	return nil
}

// Workload echoes the effective run parameters into the report, so a
// dump is self-describing and two dumps are diffable only when they
// measured the same thing.
type Workload struct {
	Rate         float64 `json:"rate"`
	DurationMs   float64 `json:"durationMs"`
	Users        int     `json:"users"`
	ZipfS        float64 `json:"zipfS"`
	K            int     `json:"k"`
	Dim          int     `json:"dim"`
	MutateEvery  int     `json:"mutateEvery,omitempty"`
	BurstEveryMs float64 `json:"burstEveryMs,omitempty"`
	BurstDurMs   float64 `json:"burstDurMs,omitempty"`
	BurstFactor  float64 `json:"burstFactor,omitempty"`
	Seed         int64   `json:"seed"`
}

// Latency summarizes the completed searches' client-observed latency
// in milliseconds. Quantiles are exact order statistics over every
// completed search, not bucket interpolations.
type Latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// SLOResult is one objective's client-side burn over the run.
type SLOResult struct {
	Objective   string  `json:"objective"`
	ObjectiveMs float64 `json:"objectiveMs"`
	Violations  int     `json:"violations"`
	// BurnRate is Violations over completed searches (0 when none
	// completed).
	BurnRate float64 `json:"burnRate"`
}

// Report is the -slojson output: the fexload/v1 schema.
type Report struct {
	Schema string `json:"schema"`
	// GoVersion and GCFlags identify the toolchain the generator was
	// built with (obs.Toolchain), so latency-trajectory diffs between
	// runs are attributable to compiler changes, not just code.
	GoVersion string   `json:"goVersion,omitempty"`
	GCFlags   string   `json:"gcflags,omitempty"`
	Target    string   `json:"target"`
	Workload  Workload `json:"workload"`

	// Sent is every scheduled arrival that was dispatched; Shed counts
	// arrivals dropped at the client by MaxInFlight; Errors counts
	// transport failures (no HTTP status).
	Sent      int            `json:"sent"`
	Completed int            `json:"completed"`
	Shed      int            `json:"shed"`
	Errors    int            `json:"errors"`
	ByStatus  map[string]int `json:"byStatus"`

	Searches int `json:"searches"`
	Adds     int `json:"adds"`
	Deletes  int `json:"deletes"`
	// Partials counts 200 search responses flagged "exact": false
	// (deadline-expired best-so-far answers under -partial servers).
	Partials int `json:"partials"`

	ElapsedMs   float64 `json:"elapsedMs"`
	AchievedQPS float64 `json:"achievedQps"`

	LatencyMs Latency     `json:"latencyMs"`
	SLOs      []SLOResult `json:"slos"`
}

// Validate checks a decoded report for schema conformance — the
// round-trip contract of -slojson consumers.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("load: report schema %q, want %q", r.Schema, Schema)
	}
	if r.Target == "" {
		return fmt.Errorf("load: report has no target")
	}
	if r.Sent < 0 || r.Completed < 0 || r.Completed > r.Sent {
		return fmt.Errorf("load: inconsistent counts: sent %d completed %d", r.Sent, r.Completed)
	}
	if got := r.Searches + r.Adds + r.Deletes + r.Errors; got != r.Completed {
		return fmt.Errorf("load: op counts %d != completed %d", got, r.Completed)
	}
	if len(r.SLOs) == 0 {
		return fmt.Errorf("load: report has no SLO results")
	}
	for _, s := range r.SLOs {
		if s.Violations > r.Searches {
			return fmt.Errorf("load: SLO %s violations %d exceed searches %d", s.Objective, s.Violations, r.Searches)
		}
	}
	return nil
}

// QueryVector derives user u's query deterministically from the run
// seed: the same (seed, u, dim) always yields the same vector, so two
// runs against the same catalog are replayable query-for-query.
func QueryVector(seed int64, u uint64, dim int) []float64 {
	rng := rand.New(rand.NewSource(seed ^ int64(u*0x9e3779b97f4a7c15)))
	q := make([]float64, dim)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return q
}

// tally accumulates results from the sender goroutines.
type tally struct {
	mu sync.Mutex
	//fex:guard mu
	completed int
	//fex:guard mu
	errors   int
	byStatus map[string]int
	searches int
	adds     int
	deletes  int
	partials int
	lats     []float64 // seconds, completed searches only
	//fex:guard mu
	addedIDs []int // ids created by adds, consumed by deletes
}

func (t *tally) noteStatus(code int) {
	var class string
	switch {
	case code < 300:
		class = "2xx"
	case code < 400:
		class = "3xx"
	case code < 500:
		class = "4xx"
	default:
		class = "5xx"
	}
	t.byStatus[class]++
}

// Run executes one open-loop load run and returns its report. ctx
// cancellation stops scheduling new arrivals; already-dispatched
// requests are awaited.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Users-1))
	if zipf == nil {
		return nil, fmt.Errorf("load: bad zipf parameters s=%v users=%d", cfg.ZipfS, cfg.Users)
	}

	tl := &tally{byStatus: make(map[string]int)}
	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	var sent, shed, mutations int

	start := time.Now()
	next := start
	// The arrival schedule is computed from the rate alone: each
	// iteration sleeps until the precomputed arrival time, so server
	// slowness never stretches the schedule (open loop). Draws happen
	// on this single goroutine, keeping the zipf/rng sequence — and so
	// the whole workload — deterministic for a given seed.
	for i := 0; ; i++ {
		offset := next.Sub(start)
		if offset >= cfg.Duration || ctx.Err() != nil {
			break
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}

		isMutation := cfg.MutateEvery > 0 && i%cfg.MutateEvery == cfg.MutateEvery-1
		user := zipf.Uint64()

		select {
		case sem <- struct{}{}:
			sent++
			wg.Add(1)
			if isMutation {
				mutations++
				doDelete := mutations%2 == 0
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					fireMutation(ctx, &cfg, tl, user, doDelete)
				}()
			} else {
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					fireSearch(ctx, &cfg, tl, user)
				}()
			}
		default:
			shed++
		}

		next = next.Add(interval(&cfg, offset))
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := buildReport(&cfg, tl, sent, shed, elapsed)
	if cfg.ownsClient {
		// Every sender has joined (wg.Wait above); drop the transport's
		// keep-alive connections too, so no goroutine started on this
		// run's behalf outlives it (TestRunJoinsGoroutines).
		cfg.Client.CloseIdleConnections()
	}
	return rep, nil
}

// interval is the gap to the next arrival at time offset into the run,
// honoring burst phases.
func interval(cfg *Config, offset time.Duration) time.Duration {
	rate := cfg.Rate
	if cfg.BurstEvery > 0 && offset%cfg.BurstEvery < cfg.BurstDur {
		rate *= cfg.BurstFactor
	}
	return time.Duration(float64(time.Second) / rate)
}

func fireSearch(ctx context.Context, cfg *Config, tl *tally, user uint64) {
	body, _ := json.Marshal(map[string]any{
		"vector": QueryVector(cfg.Seed, user, cfg.Dim),
		"k":      cfg.K,
	})
	t0 := time.Now()
	resp, err := post(ctx, cfg, cfg.Target+"/v1/search", body)
	took := time.Since(t0)

	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.completed++
	if err != nil {
		tl.errors++
		return
	}
	tl.searches++
	tl.noteStatus(resp.status)
	if resp.status == http.StatusOK {
		tl.lats = append(tl.lats, took.Seconds())
		if resp.exactKnown && !resp.exact {
			tl.partials++
		}
	}
}

func fireMutation(ctx context.Context, cfg *Config, tl *tally, user uint64, doDelete bool) {
	// Deletes consume ids this run created, so the generator never
	// shrinks a catalog it does not own; with none available the
	// mutation falls back to an add.
	var deleteID int
	if doDelete {
		tl.mu.Lock()
		if n := len(tl.addedIDs); n > 0 {
			deleteID = tl.addedIDs[n-1]
			tl.addedIDs = tl.addedIDs[:n-1]
		} else {
			doDelete = false
		}
		tl.mu.Unlock()
	}

	var resp httpResult
	var err error
	if doDelete {
		resp, err = do(ctx, cfg, http.MethodDelete, cfg.Target+"/v1/items/"+strconv.Itoa(deleteID), nil)
	} else {
		body, _ := json.Marshal(map[string]any{"vector": QueryVector(cfg.Seed, user|1<<63, cfg.Dim)})
		resp, err = post(ctx, cfg, cfg.Target+"/v1/items", body)
	}

	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.completed++
	if err != nil {
		tl.errors++
		return
	}
	tl.noteStatus(resp.status)
	if doDelete {
		tl.deletes++
		return
	}
	tl.adds++
	if resp.status == http.StatusCreated && resp.id >= 0 {
		tl.addedIDs = append(tl.addedIDs, resp.id)
	}
}

// httpResult is the slice of a response the tally needs.
type httpResult struct {
	status     int
	exact      bool
	exactKnown bool
	id         int
}

func post(ctx context.Context, cfg *Config, url string, body []byte) (httpResult, error) {
	return do(ctx, cfg, http.MethodPost, url, body)
}

func do(ctx context.Context, cfg *Config, method, url string, body []byte) (httpResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return httpResult{id: -1}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return httpResult{id: -1}, err
	}
	defer resp.Body.Close()
	out := httpResult{status: resp.StatusCode, id: -1}
	var payload struct {
		Exact *bool `json:"exact"`
		ID    *int  `json:"id"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&payload) == nil {
		if payload.Exact != nil {
			out.exact, out.exactKnown = *payload.Exact, true
		}
		if payload.ID != nil {
			out.id = *payload.ID
		}
	}
	// Drain so the transport can reuse the connection.
	_, _ = io.Copy(io.Discard, resp.Body)
	return out, nil
}

func buildReport(cfg *Config, tl *tally, sent, shed int, elapsed time.Duration) *Report {
	tl.mu.Lock()
	defer tl.mu.Unlock()

	goVersion, gcflags := obs.Toolchain()
	r := &Report{
		Schema:    Schema,
		GoVersion: goVersion,
		GCFlags:   gcflags,
		Target:    cfg.Target,
		Workload: Workload{
			Rate:         cfg.Rate,
			DurationMs:   ms(cfg.Duration),
			Users:        cfg.Users,
			ZipfS:        cfg.ZipfS,
			K:            cfg.K,
			Dim:          cfg.Dim,
			MutateEvery:  cfg.MutateEvery,
			BurstEveryMs: ms(cfg.BurstEvery),
			BurstDurMs:   ms(cfg.BurstDur),
			BurstFactor:  cfg.BurstFactor,
			Seed:         cfg.Seed,
		},
		Sent:      sent,
		Completed: tl.completed,
		Shed:      shed,
		Errors:    tl.errors,
		ByStatus:  tl.byStatus,
		Searches:  tl.searches,
		Adds:      tl.adds,
		Deletes:   tl.deletes,
		Partials:  tl.partials,
		ElapsedMs: ms(elapsed),
	}
	if elapsed > 0 {
		r.AchievedQPS = float64(tl.completed) / elapsed.Seconds()
	}

	lats := append([]float64(nil), tl.lats...)
	sort.Float64s(lats)
	if n := len(lats); n > 0 {
		var sum float64
		for _, v := range lats {
			sum += v
		}
		r.LatencyMs = Latency{
			Mean: sum / float64(n) * 1e3,
			P50:  quantile(lats, 0.5) * 1e3,
			P95:  quantile(lats, 0.95) * 1e3,
			P99:  quantile(lats, 0.99) * 1e3,
			P999: quantile(lats, 0.999) * 1e3,
			Max:  lats[n-1] * 1e3,
		}
	}
	for _, obj := range cfg.SLOs {
		viol := 0
		bound := obj.Seconds()
		for _, v := range lats {
			if v > bound {
				viol++
			}
		}
		res := SLOResult{Objective: obj.String(), ObjectiveMs: ms(obj), Violations: viol}
		if len(lats) > 0 {
			res.BurnRate = float64(viol) / float64(len(lats))
		}
		r.SLOs = append(r.SLOs, res)
	}
	return r
}

// quantile is the exact order statistic over sorted values: the
// smallest element with at least a q fraction of the sample at or
// below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}
