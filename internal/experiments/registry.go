package experiments

import (
	"fmt"
	"sort"
)

// Experiment is a runnable table/figure reproduction.
type Experiment struct {
	ID          string
	Description string
	Run         func(Config) (string, error)
}

// Registry returns every experiment, keyed by the paper's table/figure id.
func Registry() map[string]Experiment {
	exps := []Experiment{
		{"table3", "Average number of entire qTp computations (k=1)", Table3},
		{"table4", "Total retrieval and preprocessing times, all methods (k=1)", Table4},
		{"table5", "MiniBatch blocked-GEMM batch processing", Table5},
		{"table6", "LEMP batch top-k join for k in {1,2,5,10,50}", Table6},
		{"table7", "Entire-computation counts for k in {2,5,10,50}", Table7},
		{"table8", "Retrieval/preprocessing times for k in {2,5,10,50}", Table8},
		{"fig6", "Speedup of F-SIR over every other method (k=1)", Figure6},
		{"fig7", "Retrieval time vs k for SS-L and F-SIR", Figure7},
		{"fig8", "Average k-th inner product vs k", Figure8},
		{"fig9", "Distribution of per-query costs (F-SIR, k=1)", Figure9},
		{"fig10", "Retrieval time and stage counters vs the checking dimension w", Figure10},
		{"fig11", "Retrieval time vs integer scaling e", Figure11},
		{"fig12", "Distribution of entire-qTp counts (F-SIR, k=1)", Figure12},
		{"fig13", "PCATree timing and RMSE@k", Figure13},
		{"fig14", "Distribution of factor values (also fig3)", Figure14},
		{"fig15", "Cumulative IP share per dimension, Naive vs F-S", Figure15},
		{"fig16", "Avg |scalar| per dimension before/after SVD (also fig17)", Figure16And17},
		{"fig18", "Mean sorted-|value| profile of original vectors (also fig19)", Figure18And19},
		{"fig20", "Retrieval time vs dimensionality d", Figure20},
	}
	out := make(map[string]Experiment, len(exps))
	for _, e := range exps {
		out[e.ID] = e
	}
	return out
}

// IDs returns the experiment ids in stable order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunByID executes one experiment.
func RunByID(id string, cfg Config) (string, error) {
	exp, ok := Registry()[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return exp.Run(cfg)
}
