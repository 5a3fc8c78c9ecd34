package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"fexipro/internal/search"
	"fexipro/internal/searchtest"
	"fexipro/internal/snap"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// A DynamicIndex snapshot holds state, and LoadSnapshot derives the main
// indexes from it (DESIGN.md §15). These tests pin the consequence — the
// recovered index IS the checkpointed one, shard for shard and byte for
// byte — and what the loader must refuse now that it trusts the stored
// ID lists to say which rows a scan reaches.

// craftedShard and craftedState are a snapshot spelled out field by
// field, so a test can write states SaveSnapshot never would and still
// get every CRC right.
type craftedShard struct {
	mainIDs, delta       []int
	deadInMain, rebuilds int
}

type craftedState struct {
	opts      Options
	d         int
	rebuild   float64
	items     *vec.Matrix
	dead      []int
	deadCount int
	shards    []craftedShard
}

func (c craftedState) snapshot(t testing.TB) []byte {
	t.Helper()
	var b snap.Builder
	b.Section(secDynMeta, func(e *snap.Encoder) {
		e.U64(5)
		encodeOptions(e, c.opts)
		e.I64(int64(c.d))
		e.F64(c.rebuild)
		e.I64(int64(len(c.shards)))
		e.I64(int64(c.deadCount))
	})
	b.Section(secDynItems, func(e *snap.Encoder) { e.Matrix(c.items) })
	b.Section(secDynDead, func(e *snap.Encoder) { e.Ints(c.dead) })
	for s, sh := range c.shards {
		b.Section(dynShardTag(s), func(e *snap.Encoder) {
			e.U8(shardStateOnly)
			e.Ints(sh.mainIDs)
			e.Ints(sh.delta)
			e.I64(int64(sh.deadInMain))
			e.I64(int64(sh.rebuilds))
		})
	}
	var out bytes.Buffer
	if err := b.Flush(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// craft spells out di's own state: craft(di).snapshot() is SaveSnapshot.
func craft(di *DynamicIndex) craftedState {
	c := craftedState{opts: di.opts, d: di.d, rebuild: di.rebuild, items: di.items.matrix(),
		dead: di.dead.appendIDs(nil), deadCount: di.deadCount}
	for _, sh := range di.shards {
		c.shards = append(c.shards, craftedShard{slices.Clone(sh.mainIDs), slices.Clone(sh.delta), sh.deadInMain, sh.rebuilds})
	}
	return c
}

// naiveLive is the oracle: the k best live rows by exact inner product
// under the canonical order (score descending, ID ascending).
func naiveLive(items *vec.Matrix, dead func(id int) bool, q []float64, k int) []topk.Result {
	var all []topk.Result
	for id := 0; id < items.Rows; id++ {
		if !dead(id) {
			all = append(all, topk.Result{ID: id, Score: vec.Dot(q, items.Row(id))})
		}
	}
	topk.SortResults(all)
	return all[:min(k, len(all))]
}

func normalMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func mainBytes(t *testing.T, di *DynamicIndex) [][]byte {
	t.Helper()
	out := make([][]byte, len(di.shards))
	for s, sh := range di.shards {
		if sh.main == nil {
			continue
		}
		var buf bytes.Buffer
		if err := sh.main.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out[s] = buf.Bytes()
	}
	return out
}

// TestRecoveredIndexIsTheCheckpointedOne: after updates that leave
// tombstones inside a main index, rows a rebuild compacted away and a
// non-empty delta buffer, every shard's main index loads back to the
// bytes it had, the loaded index saves the snapshot it came from, and
// answers, score bits and stage counters are those of the original — at
// any GOMAXPROCS, with shards of 4300 rows (each build splits across
// goroutines, shards are built in turn) and of 700 (several shards are
// built at a time).
func TestRecoveredIndexIsTheCheckpointedOne(t *testing.T) {
	opts := Options{SVD: true, Int: true, Reduction: true}
	for _, tc := range []struct{ shards, rows int }{{1, 4300}, {3, 4300}, {4, 700}} {
		shards := tc.shards
		rng := rand.New(rand.NewSource(2100))
		const d = 12
		n := tc.rows * shards
		di, err := NewDynamicIndexSharded(normalMatrix(rng, n, d), opts, 43.5/float64(tc.rows), shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		// 44 deletes in shard 0 rebuild it (43 pending are tolerated),
		// which compacts those rows out of every list.
		for i := 0; i < 44; i++ {
			if err := di.Delete(i * 7 * shards); err != nil {
				t.Fatal(err)
			}
		}
		var added []int
		for i := 0; i < 9; i++ {
			id, err := di.Add(normalMatrix(rng, 1, d).Data)
			if err != nil {
				t.Fatal(err)
			}
			added = append(added, id)
		}
		for _, id := range []int{1, 2, 3, 5, added[0], added[4]} {
			if err := di.Delete(id); err != nil {
				t.Fatalf("S=%d: delete %d: %v", shards, id, err)
			}
		}
		var inMain, inDelta int
		for _, sh := range di.shards {
			inMain += sh.deadInMain
			inDelta += len(sh.delta)
		}
		if got := di.Rebuilds()[0]; got != 2 || inMain != 4 || inDelta != 9 || di.deadCount != 50 {
			t.Fatalf("S=%d: fixture drifted: shard 0 built %d×, %d tombstones in mains, %d delta IDs, %d dead",
				shards, got, inMain, inDelta, di.deadCount)
		}

		before := mainBytes(t, di)
		var snapshot bytes.Buffer
		if err := di.SaveSnapshot(&snapshot, 5); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshot.Bytes(), craft(di).snapshot(t)) {
			t.Fatalf("S=%d: SaveSnapshot and the field-by-field writer of this file disagree", shards)
		}
		queries := normalMatrix(rng, 200, d)
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			loaded, seq, err := loadSnapshot(context.Background(), bytes.NewReader(snapshot.Bytes()), 1)
			runtime.GOMAXPROCS(prev)
			if err != nil || seq != 5 {
				t.Fatalf("S=%d P=%d: load: seq %d, %v", shards, procs, seq, err)
			}
			for s, b := range mainBytes(t, loaded) {
				if !bytes.Equal(b, before[s]) {
					t.Fatalf("S=%d P=%d: shard %d's main index was rebuilt to different bytes", shards, procs, s)
				}
			}
			var again bytes.Buffer
			if err := loaded.SaveSnapshot(&again, 5); err != nil || !bytes.Equal(again.Bytes(), snapshot.Bytes()) {
				t.Fatalf("S=%d P=%d: the loaded index saves a different snapshot (%v)", shards, procs, err)
			}
			for i := 0; i < queries.Rows; i++ {
				q := queries.Row(i)
				want, wantStats := searchtest.Counted(di, q, 10)
				got, gotStats := searchtest.Counted(loaded, q, 10)
				if !slices.EqualFunc(got, want, func(a, b topk.Result) bool {
					return a.ID == b.ID && math.Float64bits(a.Score) == math.Float64bits(b.Score)
				}) || gotStats != wantStats {
					t.Fatalf("S=%d P=%d query %d: loaded %v %+v, original %v %+v", shards, procs, i, got, gotStats, want, wantStats)
				}
			}
		}
	}
}

// parentStateFixture is a checkpoint written by the SaveSnapshot of the
// commit before the tail floors became int16 and the ablation options left
// Options: 60×8 standard normal rows (rand.NewSource(21)), F-SIR, S = 2,
// item 7 deleted, one item added, WAL sequence 2; its dyn.meta carries all
// four option slots, false. parentStateAnswers holds what that commit's
// index answered to 20 queries (rand.NewSource(22), k = 5): IDs, score
// bits and stage counters.
const (
	parentStateFixture = "fexsnap_v1_dynamic_state.snap"
	parentStateAnswers = "fexsnap_v1_dynamic_state.answers.json"
)

// TestLoadSnapshotParentFixture: the parent's checkpoint recovers to an
// index that answers exactly as the parent's did and re-saves the bytes
// it was loaded from; the same file with an ablation slot set, or a shard
// section in a layout that embedded the index, is refused.
func TestLoadSnapshotParentFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", parentStateFixture))
	if err != nil {
		t.Fatal(err)
	}
	di, seq, err := loadSnapshot(context.Background(), bytes.NewReader(raw), 1)
	if err != nil || seq != 2 {
		t.Fatalf("load: seq %d, %v", seq, err)
	}
	if di.Len() != 60 || di.NextID() != 61 || di.Alive(7) || !slices.Equal(di.shards[0].delta, []int{60}) ||
		di.shards[1].deadInMain != 1 || !slices.Equal(di.Rebuilds(), []int{1, 1}) {
		t.Fatalf("fixture state: Len %d NextID %d delta %v deadInMain %d rebuilds %v",
			di.Len(), di.NextID(), di.shards[0].delta, di.shards[1].deadInMain, di.Rebuilds())
	}
	js, err := os.ReadFile(filepath.Join("testdata", parentStateAnswers))
	if err != nil {
		t.Fatal(err)
	}
	var answers []struct {
		IDs   []int
		Bits  []uint64
		Stats search.Stats
	}
	if err := json.Unmarshal(js, &answers); err != nil || len(answers) != 20 {
		t.Fatalf("%s: %d answers, %v", parentStateAnswers, len(answers), err)
	}
	rng := rand.New(rand.NewSource(22))
	for i, want := range answers {
		got, st := searchtest.Counted(di, normalMatrix(rng, 1, 8).Data, 5)
		if len(got) != len(want.IDs) || st != want.Stats {
			t.Fatalf("query %d: %v %+v, the parent answered %v %+v", i, got, st, want.IDs, want.Stats)
		}
		for r := range got {
			if got[r].ID != want.IDs[r] || math.Float64bits(got[r].Score) != want.Bits[r] {
				t.Fatalf("query %d rank %d: %+v, the parent answered ID %d score bits %#x", i, r, got[r], want.IDs[r], want.Bits[r])
			}
		}
	}
	var resaved bytes.Buffer
	if err := di.SaveSnapshot(&resaved, seq); err != nil || !bytes.Equal(resaved.Bytes(), raw) {
		t.Fatalf("re-saving the fixture: %v, %d bytes for the fixture's %d", err, resaved.Len(), len(raw))
	}

	// dyn.meta: lastSeq, then Options — 3 bools, Rho, E, W, PruneSlack,
	// RankTol, then the four slots.
	const slots = 8 + 3 + 5*8
	for slot, refused := range []bool{true, true, true, false} {
		set := withSection(t, raw, secDynMeta, func(p []byte) { p[slots+slot] = 1 })
		_, _, err := loadSnapshot(context.Background(), bytes.NewReader(set), 1)
		if refused != errors.Is(err, snap.ErrChecksum) || (!refused && err != nil) {
			t.Fatalf("option slot %d set: err = %v, refused should be %v", slot, err, refused)
		}
	}
	for _, layout := range []byte{0, 1, 3} {
		other := withSection(t, raw, dynShardTag(1), func(p []byte) { p[0] = layout })
		if _, _, err := loadSnapshot(context.Background(), bytes.NewReader(other), 1); !errors.Is(err, snap.ErrChecksum) {
			t.Fatalf("shard section layout %d: err = %v, want ErrChecksum", layout, err)
		}
	}
}

// withSection returns the container raw with edit applied to a copy of
// section tag's payload and every CRC made good again.
func withSection(t *testing.T, raw []byte, tag string, edit func(payload []byte)) []byte {
	t.Helper()
	f, err := snap.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var b snap.Builder
	for _, sec := range f.Sections {
		payload := slices.Clone(sec.Payload)
		if sec.Tag == tag {
			edit(payload)
		}
		b.Raw(sec.Tag, payload)
	}
	var out bytes.Buffer
	if err := b.Flush(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestLoadSnapshotRefusesUncoveredOrRepeatedItems: the ID lists are the
// only record of which rows a scan reaches, so a live item in neither
// list (never offered) or in two places (offered twice) is refused, with
// every CRC valid. A dead item may be in neither — a rebuild drops them.
func TestLoadSnapshotRefusesUncoveredOrRepeatedItems(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	di, err := NewDynamicIndexSharded(normalMatrix(rng, 40, 6), Options{SVD: true, Int: true, Reduction: true}, 0.5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := di.Add(normalMatrix(rng, 1, 6).Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := di.Delete(9); err != nil {
		t.Fatal(err)
	}
	without := func(ids []int, id int) []int {
		return slices.DeleteFunc(slices.Clone(ids), func(x int) bool { return x == id })
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *craftedState)
		ok     bool
	}{
		{"untouched", func(c *craftedState) {}, true},
		{"dead item in neither list", func(c *craftedState) {
			c.shards[1].mainIDs = without(c.shards[1].mainIDs, 9)
			c.shards[1].deadInMain = 0
		}, true},
		{"live main item dropped", func(c *craftedState) { c.shards[0].mainIDs = without(c.shards[0].mainIDs, 12) }, false},
		{"live delta item dropped", func(c *craftedState) { c.shards[0].delta = without(c.shards[0].delta, 40) }, false},
		{"item in main and delta", func(c *craftedState) { c.shards[1].delta = append(c.shards[1].delta, 3) }, false},
		{"item twice in delta", func(c *craftedState) { c.shards[1].delta = append(c.shards[1].delta, 41) }, false},
		{"dead item in main and delta", func(c *craftedState) { c.shards[1].delta = append(c.shards[1].delta, 9) }, false},
	} {
		c := craft(di)
		tc.mutate(&c)
		loaded, _, err := loadSnapshot(context.Background(), bytes.NewReader(c.snapshot(t)), 1)
		if !tc.ok {
			if !errors.Is(err, snap.ErrChecksum) {
				t.Errorf("%s: load returned %v, want ErrChecksum", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		q := normalMatrix(rng, 1, 6).Data
		got, want := loaded.Search(q, 43), naiveLive(di.items.matrix(), di.dead.has, q, 43)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, naive has %d", tc.name, len(got), len(want))
		}
		for r := range want {
			if got[r].ID != want[r].ID {
				t.Fatalf("%s: rank %d is item %d, naive says %d", tc.name, r, got[r].ID, want[r].ID)
			}
		}
	}
}

// TestLoadSnapshotRebuildFailureIsNotCorruption: a snapshot whose bytes
// are in order but whose catalog NewIndex refuses (here: the one-huge-item
// catalog the previous version indexed lossily) fails with ErrRebuild, not
// with a checksum error.
func TestLoadSnapshotRebuildFailureIsNotCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	di, err := NewDynamicIndexSharded(normalMatrix(rng, 50, 8), Options{SVD: true, Int: true, Reduction: true}, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		big   float64
		loads bool
	}{{1e6, true}, {1e9, true}, {1e12, true}, {1e13, false}, {1e16, false}, {1e20, false}} {
		c := craft(di)
		c.items.Row(7)[3] = tc.big
		_, _, err := loadSnapshot(context.Background(), bytes.NewReader(c.snapshot(t)), 1)
		if tc.loads && err != nil {
			t.Errorf("at %g: %v", tc.big, err)
		}
		if !tc.loads && (!errors.Is(err, ErrRebuild) || errors.Is(err, snap.ErrChecksum)) {
			t.Errorf("at %g: load returned %v, want ErrRebuild and no snap sentinel", tc.big, err)
		}
	}
}

// fuzzCoordinate maps one fuzzed byte to an item coordinate: small
// integers (ties, zero rows and duplicates are the common case) and, at
// the top of the range, everything a catalog must not or can barely hold.
func fuzzCoordinate(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return 1e200
	case 251:
		return 1e13
	case 250:
		return -1e13
	}
	return float64(int(b%9) - 4)
}

// FuzzLoadSnapshot writes snapshots from fuzzed FIELDS — every CRC valid,
// so the container layer lets them all through — and holds LoadSnapshot
// to: a typed error, or an index that answers like the naive scan over
// the live rows. catalog bytes become coordinates (fuzzCoordinate), dead
// is the tombstone bitmap, layout seeds where each ID is listed: main,
// delta, neither or both, IDs in the wrong shard, main lists out of
// order.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, uint64(0b100), int64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, uint64(0b1010), int64(5))
	f.Add(bytes.Repeat([]byte{3, 8, 1, 0, 6}, 14), uint64(1<<40|0xf0), int64(10))
	f.Add([]byte{1, 2, 3, 255, 5, 6, 7, 8, 9}, uint64(0), int64(8))
	f.Add([]byte{1, 2, 3, 4, 254, 6, 7, 8, 253}, uint64(1), int64(16))
	f.Add([]byte{1, 2, 3, 4, 5, 252, 7, 8, 9, 1, 1, 1}, uint64(0), int64(1))
	f.Add([]byte{1, 2, 3, 4, 251, 6, 7, 8, 9, 2, 3, 4, 5, 6, 7, 8, 1, 1, 6, 6, 250}, uint64(2), int64(24))
	for seed := int64(0); seed < 8; seed++ {
		f.Add(bytes.Repeat([]byte{7, 2, 5, 0, 1, 8, 3}, 9), uint64(0x1248), 8*seed+seed)
	}

	f.Fuzz(func(t *testing.T, catalog []byte, dead uint64, layout int64) {
		const d, maxItems = 3, 40
		n := min(len(catalog)/d, maxItems)
		if n == 0 {
			return
		}
		c := craftedState{opts: Options{SVD: true, Int: true, Reduction: true}.withDefaults(), d: d, rebuild: 0.25,
			items: vec.NewMatrix(n, d)}
		for i := range c.items.Data {
			c.items.Data[i] = fuzzCoordinate(catalog[i])
		}
		isDead := func(id int) bool { return dead>>id&1 == 1 }
		for id := 0; id < n; id++ {
			if isDead(id) {
				c.dead = append(c.dead, id)
			}
		}
		c.deadCount = len(c.dead)

		// The low three bits of layout pick how often an ID is misplaced, in
		// 28ths (0: never, so the snapshot is one SaveSnapshot could have
		// written, as far as the lists go); the rest seed the placement, an
		// xorshift stream so that the input alone reproduces a failure.
		mischief := int(layout & 7)
		state := uint64(layout>>3)*0x9e3779b97f4a7c15 | 1
		draw := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		c.shards = make([]craftedShard, 1+draw(3))
		S := len(c.shards)
		for id := 0; id < n; id++ {
			sh := &c.shards[id%S]
			inMain, inDelta := draw(3) > 0, false
			if !inMain {
				inDelta = !isDead(id) || draw(2) == 0
			}
			if draw(28) < mischief {
				switch draw(4) {
				case 0:
					inMain, inDelta = false, false
				case 1:
					inMain, inDelta = true, true
				case 2:
					sh = &c.shards[draw(S)]
				case 3:
					sh.delta = append(sh.delta, id)
				}
			}
			if inMain {
				sh.mainIDs = append(sh.mainIDs, id)
				if isDead(id) {
					sh.deadInMain++
				}
			}
			if inDelta {
				sh.delta = append(sh.delta, id)
			}
		}
		for s := range c.shards {
			c.shards[s].rebuilds = draw(3)
			if ids := c.shards[s].mainIDs; len(ids) > 1 && draw(28) < mischief {
				ids[0], ids[len(ids)-1] = ids[len(ids)-1], ids[0]
			}
		}

		di, seq, err := loadSnapshot(context.Background(), bytes.NewReader(c.snapshot(t)), 1)
		if err != nil {
			if !errors.Is(err, snap.ErrChecksum) && !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, ErrRebuild) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		live := n - c.deadCount
		if seq != 5 || di.Len() != live || di.NextID() != n {
			t.Fatalf("loaded seq %d, Len %d, NextID %d; want 5, %d, %d", seq, di.Len(), di.NextID(), live, n)
		}
		for _, q := range [][]float64{{1, -2, 3}, {0, 0, 1}, {-1, -1, -1}, c.items.Row(0)} {
			// Float error scales with the magnitudes multiplied, not with
			// the score they may cancel to (FuzzSearchMatchesNaive).
			tol := 1e-9 * (1 + vec.AbsMax(c.items.Data)*vec.AbsMax(q)*d)
			for _, k := range []int{1, 4, n + 1} {
				got, want := di.Search(q, k), naiveLive(c.items, isDead, q, k)
				if len(got) != len(want) {
					t.Fatalf("q=%v k=%d: %d results, naive has %d", q, k, len(got), len(want))
				}
				seen := map[int]bool{}
				for r, res := range got {
					if res.ID < 0 || res.ID >= n || isDead(res.ID) || seen[res.ID] {
						t.Fatalf("q=%v k=%d rank %d: item %d is dead, repeated or unknown in %v", q, k, r, res.ID, got)
					}
					seen[res.ID] = true
					if math.Abs(res.Score-want[r].Score) > tol || math.Abs(res.Score-vec.Dot(q, c.items.Row(res.ID))) > tol {
						t.Fatalf("q=%v k=%d rank %d: %+v, naive %+v", q, k, r, res, want[r])
					}
				}
			}
		}
	})
}
