package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/scan"
	"fexipro/internal/topk"
	"fexipro/internal/vec"
)

// floatsFromBytes decodes the fuzzer's byte soup into bounded floats.
func floatsFromBytes(data []byte, max int) []float64 {
	var out []float64
	for len(data) >= 8 && len(out) < max {
		bits := binary.LittleEndian.Uint64(data[:8])
		data = data[8:]
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		// Clamp to a sane dynamic range; the algorithms assume finite
		// well-scaled factors (MF output is in [-1,1]-ish ranges).
		if v > 1e6 {
			v = 1e6
		}
		if v < -1e6 {
			v = -1e6
		}
		out = append(out, v)
	}
	return out
}

// FuzzSearchMatchesNaive feeds arbitrary small item matrices and queries
// through the full F-SIR cascade and cross-checks the naive scan.
func FuzzSearchMatchesNaive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(3), uint8(2))
	f.Add(make([]byte, 256), uint8(4), uint8(1))
	seed := make([]byte, 800)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint8(5), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, dRaw, kRaw uint8) {
		d := int(dRaw%8) + 1
		k := int(kRaw%5) + 1
		vals := floatsFromBytes(data, 200)
		n := len(vals) / (d + 1) // reserve one query vector
		if n < 1 {
			return
		}
		items := vec.NewMatrix(n, d)
		copy(items.Data, vals[:n*d])
		q := make([]float64, d)
		copy(q, vals[n*d:])

		idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true})
		if errors.Is(err, core.ErrIllConditioned) {
			return // 1e6 beside 1e-300: refused, where it used to be indexed lossily
		}
		if err != nil {
			t.Fatal(err)
		}
		got := core.NewRetriever(idx).Search(q, k)
		want := scan.NewNaive(items).Search(q, k)
		if len(got) != len(want) {
			t.Fatalf("got %d results, want %d (n=%d d=%d k=%d)", len(got), len(want), n, d, k)
		}
		// The SVD transform is lossless in real arithmetic; in float64
		// its absolute error scales with the COMPUTATION magnitude
		// (‖items‖·‖q‖·d), not with the possibly tiny score itself.
		scale := vec.AbsMax(items.Data) * vec.AbsMax(q) * float64(d)
		tol := 1e-9 * (1 + scale)
		for i := range want {
			diff := math.Abs(got[i].Score - want[i].Score)
			if diff > tol+1e-6*math.Abs(want[i].Score) {
				t.Fatalf("rank %d: score %v, want %v (tol %v)", i, got[i].Score, want[i].Score, tol)
			}
		}
	})
}

// FuzzIntegerBound checks Theorem 2 on arbitrary finite vectors.
func FuzzIntegerBound(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add([]byte{255, 127, 0, 1, 128, 64, 32, 16, 8, 4, 2, 1, 99, 98, 97, 96})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := floatsFromBytes(data, 64)
		if len(vals) < 2 {
			return
		}
		half := len(vals) / 2
		q, p := vals[:half], vals[half:2*half]
		var iu, dot float64
		for s := range q {
			fq, fp := math.Floor(q[s]), math.Floor(p[s])
			iu += fq*fp + math.Abs(fq) + math.Abs(fp) + 1
			dot += q[s] * p[s]
		}
		if dot > iu+1e-6*(1+math.Abs(iu)) {
			t.Fatalf("integer bound violated: dot %v > IU %v", dot, iu)
		}
	})
}

// FuzzDynamicOps turns bytes into a sequence of add / delete / search /
// checkpoint-reload steps on a small DynamicIndex (d = 3, S ∈ {1,3},
// rebuilds firing often) and checks a search after every step against
// liveReference. Coordinates are small integers, so exact score ties,
// zero vectors and duplicate rows are the common case, and one opcode
// deletes everything the last search returned — the sequence that
// tombstones a whole top-k.
func FuzzDynamicOps(f *testing.F) {
	// S=3; search at k=4, tombstone that whole top-k, search again,
	// reload, search; add the same top-scoring item twice, search at k=2,
	// tombstone both in the delta, reload.
	f.Add([]byte{1,
		2, 9, 4, 7, 3, 4, 2, 9, 4, 7, 3, 3, 2, 9, 4, 7, 3,
		0, 0, 4, 8, 0, 0, 4, 8, 2, 9, 4, 7, 1, 4, 3})
	// S=1; delete IDs 0..3 one by one, add into the delta, delete from it.
	f.Add([]byte{0, 1, 0, 1, 1, 1, 2, 1, 3, 0, 5, 5, 5, 1, 12, 2, 1, 1, 1, 4, 3})
	f.Add(make([]byte, 40))
	// S=1; three adds, an add with a 1e200 coordinate (byte 255) that must
	// be refused and leave no trace, then adds until a rebuild folds the
	// delta, a checkpoint and a reload.
	f.Add([]byte{0, 0, 1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 0, 0, 1, 255, 3,
		0, 2, 2, 2, 0, 3, 3, 3, 0, 5, 5, 5, 3, 2, 1, 1, 1, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		const d, n0, maxOps = 3, 12, 48
		if len(data) == 0 {
			return
		}
		shards := 1 + 2*int(data[0]&1)
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Coordinates in −4…4; for an item, byte 255 is a 1e200 whose
		// square overflows.
		vector := func(item bool) []float64 {
			v := make([]float64, d)
			for s := range v {
				if b := next(); item && b == 255 {
					v[s] = 1e200
				} else {
					v[s] = float64(int(b%9) - 4)
				}
			}
			return v
		}

		initial := vec.NewMatrix(n0, d)
		for i := range initial.Data {
			initial.Data[i] = float64((i*7+i/d)%9 - 4)
		}
		di, err := core.NewDynamicIndexSharded(initial, core.Options{SVD: true, Int: true, Reduction: true}, 0.3, shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := newLiveReference(initial)
		var last []topk.Result
		probe := []float64{1, -2, 3}

		// search checks q at k against the reference: ranks agree in score
		// (ties may order differently: each shard scores in its own
		// rotated space), every result is a distinct live item and carries
		// its own true score.
		search := func(step int, q []float64, k int) []topk.Result {
			got := di.Search(q, k)
			want := ref.topK(q, k)
			if len(got) != len(want) {
				t.Fatalf("step %d: %d results, want %d", step, len(got), len(want))
			}
			seen := map[int]bool{}
			for i, r := range got {
				if r.ID < 0 || r.ID >= len(ref.items) || ref.dead[r.ID] || seen[r.ID] {
					t.Fatalf("step %d rank %d: item %d is dead, repeated or unknown", step, i, r.ID)
				}
				seen[r.ID] = true
				if math.Abs(r.Score-want[i].Score) > 1e-9 || math.Abs(r.Score-vec.Dot(q, ref.items[r.ID])) > 1e-9 {
					t.Fatalf("step %d rank %d: %+v, want score %v", step, i, r, want[i].Score)
				}
			}
			return got
		}

		for step := 0; step < maxOps && len(data) > 0; step++ {
			switch next() % 5 {
			case 0: // add
				item := vector(true)
				id, err := di.Add(item)
				if slices.Contains(item, 1e200) {
					// Refused, and the checks after the switch see the
					// index the reference never added to.
					if !errors.Is(err, core.ErrNotFinite) {
						t.Fatalf("step %d: add of %v returned %d, %v; want ErrNotFinite", step, item, id, err)
					}
					break
				}
				if err != nil || id != len(ref.items) {
					t.Fatalf("step %d: add returned %d, %v; want %d", step, id, err, len(ref.items))
				}
				ref.items = append(ref.items, item)
			case 1: // delete by ID; unknown and repeated deletes must fail
				id := int(next()) % (len(ref.items) + 1)
				err := di.Delete(id)
				if wantErr := id == len(ref.items) || ref.dead[id]; (err != nil) != wantErr {
					t.Fatalf("step %d: delete %d returned %v", step, id, err)
				}
				if err == nil {
					ref.dead[id] = true
				}
			case 2: // search
				q := vector(false)
				last = search(step, q, 1+int(next()%6))
			case 3: // checkpoint, reload, and the reload re-saves the same bytes
				var a, b bytes.Buffer
				if err := di.SaveSnapshot(&a, uint64(step)); err != nil {
					t.Fatal(err)
				}
				loaded, seq, err := core.LoadSnapshot(bytes.NewReader(a.Bytes()), 1)
				if err != nil || seq != uint64(step) {
					t.Fatalf("step %d: reload: seq %d, %v", step, seq, err)
				}
				if err := loaded.SaveSnapshot(&b, seq); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("step %d: reloaded index saves different bytes (%v)", step, err)
				}
				di = loaded
			case 4: // tombstone everything the last search returned
				for _, r := range last {
					if ref.dead[r.ID] {
						continue
					}
					if err := di.Delete(r.ID); err != nil {
						t.Fatalf("step %d: delete %d: %v", step, r.ID, err)
					}
					ref.dead[r.ID] = true
				}
			}
			search(step, probe, 4)
			if live := len(ref.items) - len(ref.dead); di.Len() != live {
				t.Fatalf("step %d: Len %d, want %d", step, di.Len(), live)
			}
		}
	})
}
