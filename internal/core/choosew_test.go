package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"fexipro/internal/vec"
)

// wSigma returns d singular values whose mass first reaches 0.7 at the
// w0-th: every value 1 but that one, 10·d.
func wSigma(d, w0 int) []float64 {
	sigma := make([]float64, d)
	for i := range sigma {
		sigma[i] = 1
	}
	sigma[w0-1] = float64(10 * d)
	return sigma
}

// TestChooseW is the rule of DESIGN.md §3 as a table: an explicit W is
// used as given (at most d); otherwise ρ's w (with SVD) or d/5 (without)
// is rounded up to a multiple of vec.HeadStep and held at d−1, and a file
// from before the rounding (rhoW) keeps the derived w as it is.
func TestChooseW(t *testing.T) {
	for _, tc := range []struct {
		d, w0 int // w0: ρ's w through wSigma; 0 no SVD, −1 a zero spectrum
		w     int // Options.W
		rhoW  bool
		want  int
	}{
		{d: 1, w0: 1, want: 1}, {d: 1, want: 1}, {d: 1, w: 3, want: 1},
		{d: 2, w0: 1, want: 1}, {d: 2, w0: 2, want: 1}, {d: 2, want: 1},
		{d: 3, w0: 1, want: 2}, {d: 3, w0: 2, want: 2}, {d: 3, want: 2},
		{d: 4, w0: 1, want: 3}, {d: 4, w0: 3, want: 3}, {d: 4, want: 3},
		{d: 5, w0: 1, want: 4}, {d: 5, w0: 3, want: 4}, {d: 5, w0: 5, want: 4}, {d: 5, want: 4},
		{d: 8, w0: 1, want: 4}, {d: 8, w0: 4, want: 4}, {d: 8, w0: 5, want: 7}, {d: 8, w0: 8, want: 7}, {d: 8, want: 4},
		{d: 16, w0: 1, want: 4}, {d: 16, w0: 5, want: 8}, {d: 16, w0: 9, want: 12}, {d: 16, w0: 12, want: 12},
		{d: 16, w0: 13, want: 15}, {d: 16, want: 4}, {d: 16, w0: -1, want: 15},
		{d: 50, w0: 13, want: 16}, {d: 50, w0: 15, want: 16}, {d: 50, w0: 17, want: 20}, {d: 50, w0: 18, want: 20},
		{d: 50, w0: 20, want: 20}, {d: 50, w0: 45, want: 48}, {d: 50, w0: 47, want: 48}, {d: 50, w0: 49, want: 49}, {d: 50, w0: 50, want: 49},
		{d: 50, want: 12}, {d: 50, w0: -1, want: 49},
		// An explicit W, with or without SVD and under either rule.
		{d: 50, w0: 13, w: 13, want: 13}, {d: 50, w0: 13, w: 7, want: 7}, {d: 50, w: 50, want: 50},
		{d: 50, w0: 13, w: 60, want: 50}, {d: 8, w0: 5, w: 8, want: 8}, {d: 50, w0: 13, w: 14, rhoW: true, want: 14},
		// The rule of files written before the rounding.
		{d: 50, w0: 13, rhoW: true, want: 13}, {d: 50, rhoW: true, want: 10}, {d: 8, w0: 5, rhoW: true, want: 5},
		{d: 8, w0: 8, rhoW: true, want: 7}, {d: 3, rhoW: true, want: 1}, {d: 1, rhoW: true, want: 1},
	} {
		idx := &Index{d: tc.d, opts: Options{W: tc.w, rhoW: tc.rhoW}.withDefaults()}
		switch {
		case tc.w0 > 0:
			idx.sigma = wSigma(tc.d, tc.w0)
		case tc.w0 < 0:
			idx.sigma = make([]float64, tc.d)
		}
		if got := idx.chooseW(); got != tc.want {
			t.Errorf("d=%d ρ's w=%d W=%d rhoW=%v: chooseW = %d, want %d", tc.d, tc.w0, tc.w, tc.rhoW, got, tc.want)
		}
	}
}

// TestCheckpointKeepsItsWRule: the parent-written checkpoint carries the
// rule of its time in its option slot, so every shard it rebuilds takes
// ρ's w unrounded; the same file with the slot set rebuilds the rounded
// one, and a checkpoint written now reloads with the w it was taken at.
func TestCheckpointKeepsItsWRule(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", parentStateFixture))
	if err != nil {
		t.Fatal(err)
	}
	load := func(raw []byte) *DynamicIndex {
		t.Helper()
		di, _, err := loadSnapshot(context.Background(), bytes.NewReader(raw), 1)
		if err != nil {
			t.Fatal(err)
		}
		return di
	}
	old := load(raw)
	if !old.opts.rhoW {
		t.Fatal("the parent's checkpoint loaded without the rule of its time")
	}
	const slot = 8 + 3 + 5*8 + 3 // dyn.meta: lastSeq, 3 bools, 5 numbers, 3 ablation slots
	rounded := load(withSection(t, raw, secDynMeta, func(p []byte) { p[slot] = 1 }))
	moved := false
	for s, sh := range old.shards {
		main, now := sh.main, rounded.shards[s].main
		if up := min((now.RhoW()+vec.HeadStep-1)/vec.HeadStep*vec.HeadStep, now.Dim()-1); main.W() != main.RhoW() || now.W() != up {
			t.Fatalf("shard %d: w = %d under the old rule and %d under the new, ρ's w %d", s, main.W(), now.W(), main.RhoW())
		}
		moved = moved || main.W() != now.W()
	}
	if !moved {
		t.Fatal("no shard's w differs between the two rules: the fixture no longer tells them apart")
	}
	if got := old.W(); len(got) != len(old.shards) || got[0] != old.shards[0].main.W() {
		t.Fatalf("DynamicIndex.W() = %v", got)
	}

	var buf bytes.Buffer
	if err := rounded.SaveSnapshot(&buf, 2); err != nil {
		t.Fatal(err)
	}
	again := load(buf.Bytes())
	for s, sh := range again.shards {
		if sh.main.W() != rounded.shards[s].main.W() || again.opts != rounded.opts {
			t.Fatalf("shard %d: a checkpoint taken at w = %d reloads at w = %d", s, rounded.shards[s].main.W(), sh.main.W())
		}
	}
}
