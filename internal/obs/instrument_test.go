package obs

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"fexipro/internal/search"
	"fexipro/internal/topk"
)

// fakeSearcher returns canned stats so the recorder's accumulation can
// be asserted exactly.
type fakeSearcher struct{ st search.Stats }

func (f *fakeSearcher) Search(q []float64, k int) []topk.Result {
	return []topk.Result{{ID: 1, Score: 2}}
}
func (f *fakeSearcher) SearchContext(_ context.Context, q []float64, k int) ([]topk.Result, error) {
	return f.Search(q, k), nil
}
func (f *fakeSearcher) Stats() search.Stats { return f.st }

func TestInstrumentedAccumulates(t *testing.T) {
	reg := NewRegistry()
	fake := &fakeSearcher{st: search.Stats{
		Scanned:             10,
		PrunedByLength:      1,
		PrunedByIntHead:     2,
		PrunedByIntFull:     3,
		PrunedByIncremental: 4,
		PrunedByMonotone:    5,
		FullProducts:        6,
		NodesVisited:        7,
	}}
	w := Instrument(fake, reg, "F-SIR")
	for i := 0; i < 3; i++ {
		if res := w.Search([]float64{1}, 1); len(res) != 1 {
			t.Fatalf("search result lost: %v", res)
		}
	}

	v := L("variant", "F-SIR")
	if got := reg.Counter(MetricSearches, "", v).Value(); got != 3 {
		t.Fatalf("searches = %d, want 3", got)
	}
	if got := reg.Counter(MetricScanned, "", v).Value(); got != 30 {
		t.Fatalf("scanned = %d, want 30", got)
	}
	wantStages := map[string]int64{
		StageLength: 3, StageIntHead: 6, StageIntFull: 9,
		StageIncremental: 12, StageMonotone: 15,
	}
	for stage, want := range wantStages {
		if got := reg.Counter(MetricPruned, "", v, L("stage", stage)).Value(); got != want {
			t.Fatalf("stage %s = %d, want %d", stage, got, want)
		}
	}
	if got := reg.Counter(MetricFullProducts, "", v).Value(); got != 18 {
		t.Fatalf("full products = %d, want 18", got)
	}
	if got := reg.Counter(MetricNodesVisited, "", v).Value(); got != 21 {
		t.Fatalf("nodes = %d, want 21", got)
	}
	if got := reg.Histogram(MetricSearchLatency, "", nil, v).Count(); got != 3 {
		t.Fatalf("latency observations = %d, want 3", got)
	}
	// Stats passthrough preserves the last-call contract.
	if w.Stats() != fake.st {
		t.Fatal("Stats not passed through")
	}
	if w.Unwrap() != fake {
		t.Fatal("Unwrap lost the inner searcher")
	}
}

func TestStageCountersFrom(t *testing.T) {
	st := search.Stats{
		Scanned: 9, PrunedByLength: 1, PrunedByIntHead: 2, PrunedByIntFull: 3,
		PrunedByIncremental: 4, PrunedByMonotone: 5, FullProducts: 6, NodesVisited: 7,
	}
	sc := StageCountersFrom(st)
	if sc.Pruned != 15 {
		t.Fatalf("pruned = %d, want 15", sc.Pruned)
	}
	if sc.Pruned != st.TotalPruned() {
		t.Fatal("StageCountersFrom disagrees with Stats.TotalPruned")
	}
	if sc.Scanned != 9 || sc.FullProducts != 6 || sc.NodesVisited != 7 {
		t.Fatalf("fields dropped: %+v", sc)
	}
}

// TestStageCountersAppendJSON holds the hand-written encoder to the
// struct's tags: every field set through reflection, so a field added to
// StageCounters without its AppendJSON line fails here.
func TestStageCountersAppendJSON(t *testing.T) {
	var all StageCounters
	v := reflect.ValueOf(&all).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1000 + i))
	}
	noNodes := all
	noNodes.Scanned, noNodes.Pruned, noNodes.NodesVisited = -3, 1<<40, 0
	for _, sc := range []StageCounters{{}, all, noNodes} {
		want, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		if got := sc.AppendJSON(nil); string(got) != string(want) {
			t.Fatalf("AppendJSON = %s, json.Marshal = %s", got, want)
		}
	}
}
