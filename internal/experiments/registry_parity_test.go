package experiments

import (
	"strings"
	"testing"

	"fexipro/internal/data"
	"fexipro/internal/method"
)

// TestRegistryRoundTripsThroughRunMethodSharded is the registry/harness
// parity check: every method the registry knows must build and answer
// through RunMethodSharded at both the sequential and the sharded
// execution paths, returning the canonical registry name and a full
// result set. This replaces the old implicit parity between three
// hand-maintained name tables.
func TestRegistryRoundTripsThroughRunMethodSharded(t *testing.T) {
	p, err := data.ProfileByName("movielens")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.Generate(p, 250, 3, 10)
	const k = 4
	for _, name := range method.Names() {
		for _, shards := range []int{1, 2} {
			r, err := RunMethodSharded(name, ds, k, false, shards, 2)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if r.Method != name {
				t.Errorf("%s: result method %q, want canonical %q", name, r.Method, name)
			}
			if r.QueriesCount != ds.Queries.Rows {
				t.Errorf("%s shards=%d: ran %d queries, want %d", name, shards, r.QueriesCount, ds.Queries.Rows)
			}
		}
	}

	// Aliases resolve to the same canonical runs.
	r, err := RunMethodSharded("ssl", ds, k, false, 1, 1)
	if err != nil || r.Method != "SS-L" {
		t.Fatalf("alias ssl: method %q err %v, want SS-L", r.Method, err)
	}

	// Unknown names fail with a helpful error.
	if _, err := RunMethodSharded("nope", ds, k, false, 1, 1); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unknown method error = %v", err)
	}
}
