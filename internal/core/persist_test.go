package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/searchtest"
	"fexipro/internal/snap"
	"fexipro/internal/vec"
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
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
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
	if err := idx.Save(&buf); err != nil {
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

	// Files whose every CRC is good but which no Save wrote must be
	// refused, not loaded into an index that panics, answers an item twice
	// or floors differently per platform.
	plain, err := core.NewIndex(items, core.Options{Int: true})
	if err != nil {
		t.Fatal(err)
	}
	var plainBuf bytes.Buffer
	if err := plain.Save(&plainBuf); err != nil {
		t.Fatal(err)
	}
	payload := func(raw []byte, tag string) []byte {
		f, err := snap.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		p, ok := f.Section(tag)
		if !ok {
			t.Fatalf("no section %q", tag)
		}
		return append([]byte(nil), p...)
	}
	const d = 8
	basis := func(rows, cols, sigmas int) []byte {
		var e snap.Encoder
		e.Matrix(vec.NewMatrix(rows, cols))
		e.Floats(make([]float64, sigmas))
		return e.Bytes()
	}
	ints := func(edit func([]int)) []byte {
		perm := snap.NewDecoder(payload(full, "idx.perm")).Ints()
		edit(perm)
		var e snap.Encoder
		e.Ints(perm)
		return e.Bytes()
	}
	rows := func(v float64) []byte {
		m := snap.NewDecoder(payload(full, "idx.rows")).Matrix()
		m.Data[3*d+5] = v
		var e snap.Encoder
		e.Matrix(m)
		return e.Bytes()
	}
	e128 := payload(full, "idx.meta")
	binary.LittleEndian.PutUint64(e128[3+8:], math.Float64bits(128)) // three bools, Rho, then E
	for _, tc := range []struct {
		name, tag string
		raw       []byte
		payload   []byte // nil drops the section
	}{
		{"idx.svd without Options.SVD", "idx.svd", plainBuf.Bytes(), basis(2, 2, 2)},
		{"Options.SVD without idx.svd", "idx.svd", full, nil},
		{"a basis one column short", "idx.svd", full, basis(d, d-1, d)},
		{"one singular value short", "idx.svd", full, basis(d, d, d-1)},
		{"perm repeats an ID", "idx.perm", full, ints(func(p []int) { p[1] = p[0] })},
		{"perm leaves [0, n)", "idx.perm", full, ints(func(p []int) { p[2] = len(p) })},
		{"a NaN coordinate", "idx.rows", full, rows(math.NaN())},
		{"an infinite coordinate", "idx.rows", full, rows(math.Inf(-1))},
		{"E = 128", "idx.meta", full, e128},
	} {
		raw := replaceSection(t, tc.raw, tc.tag, tc.payload)
		_, err := core.ReadIndex(bytes.NewReader(raw))
		if !errors.Is(err, snap.ErrChecksum) {
			t.Fatalf("%s: err = %v, want ErrChecksum", tc.name, err)
		}
		if tc.name == "E = 128" && !errors.Is(err, core.ErrIntDomain) {
			t.Fatalf("%s: err = %v, want ErrIntDomain too", tc.name, err)
		}
	}
}

// replaceSection returns the container raw with section tag's payload
// replaced by payload — appended when raw has no such section, dropped
// when payload is nil — and every CRC good.
func replaceSection(t *testing.T, raw []byte, tag string, payload []byte) []byte {
	t.Helper()
	f, err := snap.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var b snap.Builder
	found := false
	for _, s := range f.Sections {
		if s.Tag != tag {
			b.Raw(s.Tag, s.Payload)
		} else if found = true; payload != nil {
			b.Raw(tag, payload)
		}
	}
	if !found {
		b.Raw(tag, payload)
	}
	var out bytes.Buffer
	if err := b.Flush(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
