package core_test

import (
	"testing"

	"fexipro/internal/core"
	"fexipro/internal/engine"
	"fexipro/internal/searchtest"
	"fexipro/internal/vec"
)

// TestSnapshotRoundTrip: a saved-and-loaded FEXIPRO index must be
// indistinguishable from the one that was built — byte-identical on
// re-save, bit-identical results and stage counters through the sharded
// engine, and unchanged cancellation semantics. "F" pins the minimal
// section set, "F-SIR" the full one (SVD + integer + reduction); the
// remaining cases take the integer section through each way its head
// floors are packed in memory (3×21, 2×32, 1×64 bits) and the compact
// tail, since Save unpacks and ReadIndex re-packs them.
func TestSnapshotRoundTrip(t *testing.T) {
	sir := core.Options{SVD: true, Int: true, Reduction: true}
	compact, e1000, e1e6 := sir, sir, sir
	compact.CompactInts = true
	e1000.E = 1000
	e1e6.E = 1e6
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"F", core.Options{}},
		{"F-SIR", sir},
		{"F-SIR-compact", compact},
		{"F-SIR-E1000", e1000},
		{"F-SIR-E1e6", e1e6},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			searchtest.CheckSnapshotRoundTrip(t, searchtest.SnapshotCodec[*core.Index]{
				Build: func(items *vec.Matrix) *core.Index {
					idx, err := core.NewIndex(items, tc.opts)
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					return idx
				},
				Save: (*core.Index).Save,
				Load: core.ReadIndex,
				Searcher: func(ix *core.Index, shards int) searchtest.FaultSearcher {
					return engine.New(core.NewSharded(ix, shards), 2)
				},
			}, "core/"+tc.name)
		})
	}
}
