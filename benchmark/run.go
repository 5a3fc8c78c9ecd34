package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fexipro"
)

// outDir receives the trace files and the per-round data dirs; it is
// relative to the working directory, which is the repository root.
const outDir = "benchmark/out"

// config is how much one invocation measures.
type config struct {
	seed int64
	// seconds is the measuring budget per workload: rounds repeat until
	// the next would not fit. rounds, when positive, fixes the count
	// instead.
	seconds float64
	rounds  int
	// size scales n and the per-round op counts (1 = the benchmark).
	size float64
}

func (c config) items() int { return int(fullItems * c.size) }

// minRounds is run even when the budget is shorter: a best time per op
// needs something to choose from.
const minRounds = 2

// prepared is a workload with its inputs resident, ready for rounds.
type prepared struct {
	w      workload
	in     *inputs
	pub    *fexipro.Matrix // lib-* only
	bodies *bodies         // serve-* only
}

func prepare(w workload, cfg config) (*prepared, error) {
	w = w.scaled(cfg.size)
	p := &prepared{w: w, in: generate(w, cfg.items(), cfg.seed)}
	if !w.serve {
		p.pub = publicMatrix(p.in.items)
		return p, nil
	}
	var err error
	p.bodies, err = encodeBodies(p.in)
	return p, err
}

// setup builds the workload's system from the resident inputs: the
// timed part of a round's set-up.
func (p *prepared) setup(round int) (*system, error) {
	if !p.w.serve {
		return newLibSystem(p.pub, p.in.queries)
	}
	dir := ""
	if p.w.persist {
		var err error
		if dir, err = freshDataDir(p.w.name, fmt.Sprint(round)); err != nil {
			return nil, err
		}
	}
	s, err := newServed(p.in, p.bodies, dir)
	if err != nil {
		return nil, err
	}
	return s.system(), nil
}

// freshDataDir returns a path under out/data that does not exist but
// whose parent does: the server creates the directory itself, as on a
// first boot. The process ID keeps concurrent invocations apart.
func freshDataDir(workload, tag string) (string, error) {
	dir := filepath.Join(outDir, "data", fmt.Sprintf("%s-%d-%s", workload, os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(filepath.Dir(dir), 0o755)
}

// round is what one round measured.
type round struct {
	setupS   float64
	indexMiB float64 // first round only
	// took is the time inside the system's call for each op of the
	// sequence, negative where the op failed.
	took              []time.Duration
	attempted, failed int
}

// replay issues ops in order through one client, decoding the first
// `decode` searches, and returns every reply with the phase wall time.
func replay(c client, ops []op, decode int) ([]reply, time.Duration) {
	out := make([]reply, len(ops))
	start := time.Now()
	for i, o := range ops {
		want := o.kind == opSearch && decode > 0
		if want {
			decode--
		}
		out[i] = c(o, want)
	}
	return out, time.Since(start)
}

// replayClosedLoop splits ops between `clients` callers that each send
// their next request when the previous one returns. Only the traced run
// uses it: more than one caller on this 2-core box measures the
// scheduler (README.md).
func replayClosedLoop(sys *system, ops []op, clients int) ([]reply, time.Duration) {
	out := make([]reply, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int, call client) {
			defer wg.Done()
			for i := c; i < len(ops); i += clients {
				out[i] = call(ops[i], false)
			}
		}(c, sys.client())
	}
	wg.Wait()
	return out, time.Since(start)
}

// times returns each reply's time inside the system's call, negative
// where the op failed, and the number that failed.
func times(replies []reply) (took []time.Duration, failed int) {
	took = make([]time.Duration, len(replies))
	for i, r := range replies {
		took[i] = r.took
		if r.err != nil {
			took[i] = -1
			failed++
		}
	}
	return took, failed
}

// searchLatencies returns the sorted search latencies in µs and the
// number of failed ops among replies.
func searchLatencies(ops []op, replies []reply) (us []float64, failed int) {
	took, failed := times(replies)
	us, _ = searchMicros(ops, took)
	return us, failed
}

// nearestRank is the p-th percentile of sorted by the nearest-rank rule.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func perSecond(n int, d time.Duration) float64 { return float64(n) / d.Seconds() }

func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runRound is one round of the protocol: GC, timed set-up, untimed
// warm-up, the timed op sequence. The first round additionally measures
// index_mib and checks answers against the oracle after the sequence,
// outside every timed region.
func (p *prepared) runRound(n int, first bool) (round, error) {
	var r round
	before := 0.0
	if first {
		before = heapMiB()
	}
	runtime.GC()
	t0 := time.Now()
	sys, err := p.setup(n)
	if err != nil {
		return r, fmt.Errorf("%s: set-up: %w", p.w.name, err)
	}
	r.setupS = time.Since(t0).Seconds()
	if first {
		r.indexMiB = heapMiB() - before
	}

	call := sys.client()
	for i := 0; i < p.w.warm; i++ {
		call(op{opSearch, i}, false)
	}
	decode := 0
	if first {
		decode = oracleSearches
	}
	replies, _ := replay(call, p.in.seq, decode)
	r.took, r.failed = times(replies)
	r.attempted = len(replies)

	if first {
		r.failed += verify(p.w.name, p.in, sys, p.in.seq, replies)
	}
	if err := sys.close(); err != nil {
		return r, fmt.Errorf("%s: close: %w", p.w.name, err)
	}
	return r, nil
}

// verify replays the acknowledged ops on the oracle and counts decoded
// searches whose answer it rejects, adds that got the wrong ID, and a
// final item count that disagrees with the system's own.
func verify(name string, in *inputs, sys *system, ops []op, replies []reply) (failed int) {
	or := newOracle(in)
	for i, o := range ops {
		r := replies[i]
		if r.err != nil {
			continue // already counted, and not applied
		}
		switch {
		case o.kind == opSearch && r.res != nil:
			if err := or.check(in.queries.Row(o.arg), r.res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: op %d: oracle: %v\n", name, i, err)
				failed++
			}
		case o.kind == opAdd && r.id != or.live:
			fmt.Fprintf(os.Stderr, "%s: op %d: add got id %d, want %d\n", name, i, r.id, or.live)
			failed++
		}
		or.apply(o)
	}
	if got, err := sys.items(); err != nil || (got >= 0 && got != or.items()) {
		fmt.Fprintf(os.Stderr, "%s: item count %d (err %v), want %d\n", name, got, err, or.items())
		failed++
	}
	return failed
}

// result is one workload's end-to-end outcome over all its rounds.
type result struct {
	rounds            int
	metrics           map[string]float64
	p99               float64 // printed for information only
	attempted, failed int
}

// bestTimes is the element-wise minimum of the rounds' op times: every
// round replays the same ops against an identically built system, so an
// op does the same work each time and interference on a shared box only
// ever adds to it. An op that never succeeded stays negative.
func bestTimes(rs []round) []time.Duration {
	best := append([]time.Duration(nil), rs[0].took...)
	for _, r := range rs[1:] {
		for i, t := range r.took {
			if t >= 0 && (best[i] < 0 || t < best[i]) {
				best[i] = t
			}
		}
	}
	return best
}

// runWorkload runs rounds until the budget is spent and reduces them to
// the end-to-end metrics. Set-up is the fastest round's. Latencies are
// percentiles over the searches' best times, and throughput is the op
// count over the sum of all ops' best times: over fifteen 15-round
// windows of lib-skewed these repeated within 1.7 % (p50), 3.6 % (p95)
// and 2.0 %, where the best whole round repeated within 6.5 %, 7.9 % and
// 5.8 %.
func runWorkload(w workload, cfg config) (*result, error) {
	p, err := prepare(w, cfg)
	if err != nil {
		return nil, err
	}
	var rs []round
	start := time.Now()
	for {
		r, err := p.runRound(len(rs), len(rs) == 0)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
		if cfg.rounds > 0 {
			if len(rs) == cfg.rounds {
				break
			}
			continue
		}
		spent := time.Since(start).Seconds()
		if len(rs) >= minRounds && spent+spent/float64(len(rs)) > cfg.seconds {
			break
		}
	}

	res := &result{rounds: len(rs), metrics: map[string]float64{"index_mib": rs[0].indexMiB}}
	setup := rs[0].setupS
	for _, r := range rs {
		setup = min(setup, r.setupS)
		res.attempted += r.attempted
		res.failed += r.failed
	}
	us, total := searchMicros(p.in.seq, bestTimes(rs))
	res.metrics["setup_s"] = setup
	res.metrics["query_p50_us"], res.metrics["query_p95_us"] = nearestRank(us, 50), nearestRank(us, 95)
	res.p99 = nearestRank(us, 99)
	res.metrics["throughput_per_s"] = perSecond(len(p.in.seq), total)
	return res, nil
}

// searchMicros returns the sorted times of the successful searches of
// ops in µs, and the summed time of all successful ops.
func searchMicros(ops []op, took []time.Duration) (us []float64, total time.Duration) {
	for i, t := range took {
		if t < 0 {
			continue
		}
		total += t
		if ops[i].kind == opSearch {
			us = append(us, float64(t.Nanoseconds())/1e3)
		}
	}
	sort.Float64s(us)
	return us, total
}
