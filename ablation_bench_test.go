// Ablation benchmarks for the design choices called out in DESIGN.md:
// each switch disables one decision the paper (or this implementation)
// made, quantifying its contribution on the calibrated workloads.
package fexipro_test

import (
	"testing"

	"fexipro/internal/core"
)

func runAblation(b *testing.B, profile string, opts core.Options, ab core.Ablation) {
	b.Helper()
	ds := benchDataset(b, profile)
	idx, err := core.NewAblationIndex(ds.Items, opts, ab)
	if err != nil {
		b.Fatal(err)
	}
	r := core.NewRetriever(idx)
	b.ResetTimer()
	var full int
	for i := 0; i < b.N; i++ {
		full = 0
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			r.Search(ds.Queries.Row(qi), 1)
			full += r.Stats().FullProducts
		}
	}
	b.ReportMetric(float64(full)/float64(ds.Queries.Rows), "fullIP/query")
}

var fullOpts = core.Options{SVD: true, Int: true, Reduction: true}

// BenchmarkAblationIntScaling — Equation 7 per-part scaling versus the
// Equation 4 single global maximum.
func BenchmarkAblationIntScaling(b *testing.B) {
	for _, p := range []string{"movielens", "netflix"} {
		b.Run(p+"/per-part", func(b *testing.B) { runAblation(b, p, fullOpts, core.Ablation{}) })
		b.Run(p+"/global", func(b *testing.B) { runAblation(b, p, fullOpts, core.Ablation{GlobalIntScaling: true}) })
	}
}

// BenchmarkAblationOrder — the paper's SIR check order versus SRI
// (reduction before the integer bounds).
func BenchmarkAblationOrder(b *testing.B) {
	for _, p := range []string{"movielens", "netflix"} {
		b.Run(p+"/SIR", func(b *testing.B) { runAblation(b, p, fullOpts, core.Ablation{}) })
		b.Run(p+"/SRI", func(b *testing.B) { runAblation(b, p, fullOpts, core.Ablation{ReductionFirst: true}) })
	}
}

// BenchmarkAblationSlack — the pruning safety margin versus the paper's
// strict comparisons (PruneSlack = 0).
func BenchmarkAblationSlack(b *testing.B) {
	for _, p := range []string{"movielens"} {
		b.Run(p+"/slack-1e-9", func(b *testing.B) { runAblation(b, p, fullOpts, core.Ablation{}) })
		o := fullOpts
		o.PruneSlack = -1 // normalized to 0 = strict paper comparisons
		b.Run(p+"/strict", func(b *testing.B) { runAblation(b, p, o, core.Ablation{}) })
	}
}

// BenchmarkAblationW — fixed checking dimensions versus the ρ-derived
// one, exposing the w sensitivity that Figure 10 sweeps via ρ.
func BenchmarkAblationW(b *testing.B) {
	for _, w := range []int{2, 8, 25, 49} {
		o := fullOpts
		o.W = w
		b.Run("movielens/w="+itoa(w), func(b *testing.B) { runAblation(b, "movielens", o, core.Ablation{}) })
	}
	b.Run("movielens/w=rho0.7", func(b *testing.B) { runAblation(b, "movielens", fullOpts, core.Ablation{}) })
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
