package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/searchtest"
)

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	items, _ := searchtest.RandomInstance(rng, 400, 16)
	for _, opts := range []core.Options{
		{},
		{SVD: true},
		{Int: true},
		{SVD: true, Int: true, Reduction: true},
	} {
		orig, err := core.NewIndex(items, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := orig.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		loaded, err := core.ReadIndex(&buf)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if loaded.W() != orig.W() || loaded.Len() != orig.Len() || loaded.Dim() != orig.Dim() {
			t.Fatalf("loaded shape mismatch: %d/%d/%d vs %d/%d/%d",
				loaded.W(), loaded.Len(), loaded.Dim(), orig.W(), orig.Len(), orig.Dim())
		}

		ro, rl := core.NewRetriever(orig), core.NewRetriever(loaded)
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 16)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			a := ro.Search(q, 5)
			b := rl.Search(q, 5)
			if len(a) != len(b) {
				t.Fatalf("result count mismatch after load")
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("rank %d: %v vs %v after load", i, a[i], b[i])
				}
			}
			if ro.Stats() != rl.Stats() {
				t.Fatalf("pruning stats diverged after load: %+v vs %+v", ro.Stats(), rl.Stats())
			}
			searchtest.CheckTopK(t, items, q, 5, b, "loaded-index")
		}
	}
}

func TestReadIndexRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	items, _ := searchtest.RandomInstance(rng, 50, 8)
	idx, err := core.NewIndex(items, core.Options{SVD: true, Int: true, Reduction: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte("NOPE"), full[4:]...)
	if _, err := core.ReadIndex(bytes.NewReader(bad)); err == nil {
		t.Fatal("expected magic error")
	}
	// Truncations at various points must error, never panic.
	for _, cut := range []int{3, 10, 50, len(full) / 2, len(full) - 3} {
		if _, err := core.ReadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Random corruption in the header region.
	for i := 0; i < 30; i++ {
		c := append([]byte(nil), full...)
		pos := 4 + rng.Intn(200)
		c[pos] ^= 0xFF
		// May legitimately still parse (flipping a float bit), but must
		// never panic; the error itself is irrelevant.
		_, _ = core.ReadIndex(bytes.NewReader(c))
	}
}
