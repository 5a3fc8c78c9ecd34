package obs

import (
	"encoding/json"
	"reflect"
	"testing"

	"fexipro/internal/search"
)

// TestSearchRecorderAccumulates: every RecordSearch folds one query's
// counters, stage by stage, and its latency into the variant's families.
func TestSearchRecorderAccumulates(t *testing.T) {
	reg := NewRegistry()
	rec := NewSearchRecorder(reg, "F-SIR")
	for i := 0; i < 3; i++ {
		rec.RecordSearch(search.Stats{
			Scanned:             10,
			PrunedByLength:      1,
			PrunedByIntHead:     2,
			PrunedByIntFull:     3,
			PrunedByIncremental: 4,
			PrunedByMonotone:    5,
			FullProducts:        6,
			NodesVisited:        7,
		}, 0.001)
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
