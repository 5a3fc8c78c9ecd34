package main

import (
	"fmt"
	"math/rand"

	"fexipro/internal/data"
	"fexipro/internal/vec"
)

// Fixed shape of every run: the paper's d = 50 and k = 10 at the
// ROADMAP's n ≥ 10⁵ scale. size scales n and the per-round op counts
// down together; only the smoke test sets it below 1.
const (
	fullItems = 100000
	dim       = 50
	topK      = 10
	// tailMutations follow the traced round's op sequence so the mutation
	// layers report on every workload, not only serve-mixed.
	tailMutations = 20
	// oracleSearches is how many searches of the first round are checked
	// against the naive scan.
	oracleSearches = 100
)

// workload is one named traffic mix. The op counts are per round.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	why     string
	profile func() data.Profile
	// serve drives the in-process fexserve handler; false drives the
	// public library API.
	serve bool
	// persist gives the server a fresh data dir per round (WAL +
	// checkpoints).
	persist bool
	warm    int // untimed warm-up searches
	ops     int // timed ops, issued by one client
	// mutateEvery makes every Nth timed op a mutation, alternating add
	// and delete (0 = searches only).
	mutateEvery int
}

var workloads = []workload{
	{
		name:    "lib-skewed",
		why:     "skewed norms (MovieLens shape): the pruning cascade does nearly all the work, so scan-loop layout, bound evaluation and per-query allocation show here",
		profile: data.MovieLens, warm: 200, ops: 2000,
	},
	{
		name:    "lib-flat",
		why:     "flat norms (Netflix shape) defeat early termination: time goes to the integer/incremental bounds and vec kernels, so a termination-only gain predicts no change here",
		profile: data.Netflix, warm: 100, ops: 600,
	},
	{
		name:    "serve-read",
		why:     "same catalog and queries as lib-skewed through the fexserve handler, one client: the difference is the serving stack (decode, guard, Server.mu, dynamic index, encode, metrics)",
		profile: data.MovieLens, serve: true, warm: 200, ops: 1500,
	},
	{
		name:    "serve-mixed",
		why:     "every 10th op adds or deletes an item with WAL fsync: searches run over a delta buffer and tombstones, so a read gain bought by costlier writes shows as lower throughput",
		profile: data.MovieLens, serve: true, persist: true, warm: 200, ops: 1000, mutateEvery: 10,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w with its per-round op counts multiplied by size
// (never below a handful, so percentiles stay defined).
func (w workload) scaled(size float64) workload {
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(int(float64(n)*size), 2*w.mutateEvery, 20)
	}
	w.warm, w.ops = scale(w.warm), scale(w.ops)
	return w
}

type opKind uint8

const (
	opSearch opKind = iota
	opAdd
	opDelete
)

// op is one request of a workload's fixed sequence. arg is the query
// row for a search, the pool row for an add, the catalog ID for a
// delete.
type op struct {
	kind opKind
	arg  int
}

// inputs is everything a workload feeds the program under test, made
// from the workload and the seed alone. The program sees only the
// matrices.
type inputs struct {
	n int
	// all holds the catalog in rows [0, n) followed by the held-out add
	// pool: the server numbers added items n, n+1, … in arrival order,
	// so pool row j becomes catalog ID n+j and all doubles as the
	// oracle's matrix.
	all     *vec.Matrix
	items   *vec.Matrix // view of all[0:n]
	queries *vec.Matrix // warm-up rows first, then one row per timed search
	// seq is the timed single-client sequence; tail is the run of
	// mutations the traced round appends to it.
	seq  []op
	tail []op
}

// The seed draws from fixed pools: which users query, which held-out
// vectors arrive, which items retire.
const (
	queryPool = 8192
	addPool   = 256
)

// generate builds the inputs of w for one seed. The catalog is the
// profile's own: data.Generate on the unchanged profile also yields a
// pool of user vectors and a pool of held-out item vectors. One
// generator seeded with seed then picks, in this order, the queries,
// the vectors to add and the items to delete, so one number fixes the
// whole run and two workloads on one profile see the same users.
//
// Redrawing the catalog per seed was measured and dropped: it moved
// query_p50_us of lib-skewed by 9 % between seeds (230–270 µs), as much
// as the regression bound, while one catalog repeats within 2 %.
func generate(w workload, n int, seed int64) *inputs {
	mutations := tailMutations
	if w.mutateEvery > 0 {
		mutations += w.ops / w.mutateEvery
	}
	pool := (mutations + 1) / 2
	ds := data.Generate(w.profile(), n+addPool, queryPool, dim)
	rng := rand.New(rand.NewSource(seed))

	in := &inputs{n: n, all: ds.Items.Slice(0, n+pool), items: ds.Items.Slice(0, n)}
	in.queries = vec.NewMatrix(w.warm+w.ops, dim)
	for i, row := range rng.Perm(queryPool)[:in.queries.Rows] {
		copy(in.queries.Row(i), ds.Queries.Row(row))
	}
	// The chosen held-out vectors move to the front of the pool, in the
	// order they will be added.
	held := ds.Items.Slice(n, n+addPool).Clone()
	for i, row := range rng.Perm(addPool)[:pool] {
		copy(in.all.Row(n+i), held.Row(row))
	}
	// Deletes hit distinct initial IDs: a seeded permutation prefix.
	victims := rng.Perm(n)[:mutations-pool]
	adds, dels := 0, 0
	mutation := func() op {
		if adds <= dels {
			adds++
			return op{opAdd, adds - 1}
		}
		dels++
		return op{opDelete, victims[dels-1]}
	}
	query := w.warm
	for i := 1; i <= w.ops; i++ {
		if w.mutateEvery > 0 && i%w.mutateEvery == 0 {
			in.seq = append(in.seq, mutation())
			continue
		}
		in.seq = append(in.seq, op{opSearch, query})
		query++
	}
	for i := 0; i < tailMutations; i++ {
		in.tail = append(in.tail, mutation())
	}
	return in
}
