package obs

import (
	"strconv"

	"fexipro/internal/search"
)

// StageCounters is the shared per-pruning-stage counter schema. It is
// the one JSON shape used by the /v1/search response, the fexbench
// -statsjson dump, and (as metric names) the Prometheus exposition, so
// offline benchmarks and online telemetry stay comparable field by
// field with the paper's Tables 3 and 7.
type StageCounters struct {
	Scanned             int `json:"scanned"`
	PrunedByLength      int `json:"prunedByLength"`
	PrunedByIntHead     int `json:"prunedByIntHead"`
	PrunedByIntFull     int `json:"prunedByIntFull"`
	PrunedByIncremental int `json:"prunedByIncremental"`
	PrunedByMonotone    int `json:"prunedByMonotone"`
	Pruned              int `json:"pruned"` // sum of the five stages
	FullProducts        int `json:"fullProducts"`
	NodesVisited        int `json:"nodesVisited,omitempty"`
}

// StageCountersFrom converts internal search counters into the shared
// schema, deriving the collapsed total via Stats.TotalPruned.
func StageCountersFrom(st search.Stats) StageCounters {
	return StageCounters{
		Scanned:             st.Scanned,
		PrunedByLength:      st.PrunedByLength,
		PrunedByIntHead:     st.PrunedByIntHead,
		PrunedByIntFull:     st.PrunedByIntFull,
		PrunedByIncremental: st.PrunedByIncremental,
		PrunedByMonotone:    st.PrunedByMonotone,
		Pruned:              st.TotalPruned(),
		FullProducts:        st.FullProducts,
		NodesVisited:        st.NodesVisited,
	}
}

// AppendJSON appends the bytes json.Marshal(sc) produces — the keys in
// struct order, nodesVisited only when non-zero — without reflection;
// the /v1/search response is built from it on every query.
func (sc StageCounters) AppendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"scanned":`...), int64(sc.Scanned), 10)
	b = strconv.AppendInt(append(b, `,"prunedByLength":`...), int64(sc.PrunedByLength), 10)
	b = strconv.AppendInt(append(b, `,"prunedByIntHead":`...), int64(sc.PrunedByIntHead), 10)
	b = strconv.AppendInt(append(b, `,"prunedByIntFull":`...), int64(sc.PrunedByIntFull), 10)
	b = strconv.AppendInt(append(b, `,"prunedByIncremental":`...), int64(sc.PrunedByIncremental), 10)
	b = strconv.AppendInt(append(b, `,"prunedByMonotone":`...), int64(sc.PrunedByMonotone), 10)
	b = strconv.AppendInt(append(b, `,"pruned":`...), int64(sc.Pruned), 10)
	b = strconv.AppendInt(append(b, `,"fullProducts":`...), int64(sc.FullProducts), 10)
	if sc.NodesVisited != 0 {
		b = strconv.AppendInt(append(b, `,"nodesVisited":`...), int64(sc.NodesVisited), 10)
	}
	return append(b, '}')
}

// Stage names, in paper order (Table 3's bound cascade). These are the
// values of the "stage" label on fexipro_pruned_items_total.
const (
	StageLength      = "length"
	StageIntHead     = "int_head"
	StageIntFull     = "int_full"
	StageIncremental = "incremental"
	StageMonotone    = "monotone"
)

// Stages lists every pruning stage label value in cascade order.
var Stages = []string{StageLength, StageIntHead, StageIntFull, StageIncremental, StageMonotone}

// Metric names shared by the server, the search instrumentation, and
// the documentation.
const (
	MetricSearchLatency = "fexipro_search_latency_seconds"
	MetricScanned       = "fexipro_scanned_items_total"
	MetricPruned        = "fexipro_pruned_items_total"
	MetricFullProducts  = "fexipro_full_products_total"
	MetricNodesVisited  = "fexipro_tree_nodes_visited_total"
	MetricSearches      = "fexipro_searches_total"
	// MetricShardScan is the per-shard scan wall time of the sharded
	// execution engine, labeled by shard index (DESIGN.md §11). Skew
	// between shard labels reveals partition imbalance.
	MetricShardScan = "fexipro_shard_scan_seconds"
	// Persistence metrics (DESIGN.md §15): snapshot load/save wall time,
	// checkpoint file size and cumulative WAL record counts. Load (read +
	// index rebuild + replay) is set once at boot; save and bytes are
	// refreshed at every checkpoint; records counts acknowledged mutation
	// appends; replays counts records re-applied during recovery.
	MetricSnapshotLoad  = "fexipro_snapshot_load_seconds"
	MetricSnapshotSave  = "fexipro_snapshot_save_seconds"
	MetricSnapshotBytes = "fexipro_snapshot_bytes"
	MetricWALRecords    = "fexipro_wal_records_total"
	MetricWALReplays    = "fexipro_wal_replays_total"
)

// SearchRecorder accumulates cumulative per-stage counters and search
// latency into a registry for one searcher variant. Construct once per
// (registry, variant) pair; RecordSearch is safe for concurrent use.
type SearchRecorder struct {
	searches *Counter
	scanned  *Counter
	stages   [5]*Counter
	full     *Counter
	nodes    *Counter
	latency  *Histogram
}

// NewSearchRecorder registers (or reuses) the search metric families in
// reg, labeled variant (e.g. "F-SIR").
func NewSearchRecorder(reg *Registry, variant string) *SearchRecorder {
	v := L("variant", variant)
	r := &SearchRecorder{
		searches: reg.Counter(MetricSearches,
			"Search calls answered.", v),
		scanned: reg.Counter(MetricScanned,
			"Item vectors reached by the scan before termination.", v),
		full: reg.Counter(MetricFullProducts,
			"Entire q^T p computations (the Tables 3/7 metric).", v),
		nodes: reg.Counter(MetricNodesVisited,
			"Tree nodes expanded (tree methods only).", v),
		latency: reg.Histogram(MetricSearchLatency,
			"Search latency in seconds.", nil, v),
	}
	for i, stage := range Stages {
		r.stages[i] = reg.Counter(MetricPruned,
			"Items pruned without a full inner product, by bound stage.",
			v, L("stage", stage))
	}
	return r
}

// ShardScanObserver returns a per-shard scan callback (matching the
// execution engine's Observer signature) that records each shard's wall
// time into the MetricShardScan histogram, labeled variant and shard
// index. The per-shard stage counters are NOT recorded here — the
// engine aggregates them into its query totals, which flow into the
// existing SearchRecorder families, keeping cumulative counters
// identical whether a variant runs sharded or not. Safe for concurrent
// use from engine workers.
func ShardScanObserver(reg *Registry, variant string) func(shard int, seconds float64, st search.Stats) {
	return func(shard int, seconds float64, st search.Stats) {
		reg.Histogram(MetricShardScan,
			"Per-shard scan wall time of the sharded execution engine, in seconds.",
			nil, L("variant", variant), L("shard", strconv.Itoa(shard))).Observe(seconds)
	}
}

// RecordSearch folds one query's counters and wall time into the
// cumulative metrics.
func (r *SearchRecorder) RecordSearch(st search.Stats, seconds float64) {
	r.searches.Inc()
	r.scanned.Add(int64(st.Scanned))
	r.stages[0].Add(int64(st.PrunedByLength))
	r.stages[1].Add(int64(st.PrunedByIntHead))
	r.stages[2].Add(int64(st.PrunedByIntFull))
	r.stages[3].Add(int64(st.PrunedByIncremental))
	r.stages[4].Add(int64(st.PrunedByMonotone))
	r.full.Add(int64(st.FullProducts))
	r.nodes.Add(int64(st.NodesVisited))
	r.latency.Observe(seconds)
}
