package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fexipro/internal/core"
	"fexipro/internal/data"
	"fexipro/internal/engine"
	"fexipro/internal/pcatree"
	"fexipro/internal/scan"
	"fexipro/internal/svd"
	"fexipro/internal/vec"
)

// Figure7 plots total retrieval time versus k for SS-L and F-SIR.
func Figure7(cfg Config) (string, error) {
	ks := []int{1, 2, 5, 10, 50}
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		ssl, err := Build("SS-L", ds.Items, ds.Queries)
		if err != nil {
			return "", err
		}
		fsir, err := Build("F-SIR", ds.Items, ds.Queries)
		if err != nil {
			return "", err
		}
		x := make([]float64, len(ks))
		ys := [][]float64{make([]float64, len(ks)), make([]float64, len(ks))}
		for i, k := range ks {
			x[i] = float64(k)
			ys[0][i] = Run(ssl, ds, k, false).Retrieve.Seconds()
			ys[1][i] = Run(fsir, ds, k, false).Retrieve.Seconds()
		}
		out += Series(fmt.Sprintf("Figure 7 [%s]: retrieval time (s) vs k", p.Name),
			"k", x, []string{"SS-L", "F-SIR"}, ys)
		out += "\n"
	}
	return out, nil
}

// Figure8 plots the average k-th largest inner product per query as a
// function of k (1..50) — the data behind the paper's pruning-difficulty
// analysis.
func Figure8(cfg Config) (string, error) {
	const maxK = 50
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		b, err := Build("F-SIR", ds.Items, ds.Queries)
		if err != nil {
			return "", err
		}
		sums := make([]float64, maxK)
		for i := 0; i < ds.Queries.Rows; i++ {
			res := b.Searcher.Search(ds.Queries.Row(i), maxK)
			for k := 0; k < maxK && k < len(res); k++ {
				sums[k] += res[k].Score
			}
		}
		x := make([]float64, maxK)
		y := make([]float64, maxK)
		for k := 0; k < maxK; k++ {
			x[k] = float64(k + 1)
			y[k] = sums[k] / float64(ds.Queries.Rows)
		}
		out += Series(fmt.Sprintf("Figure 8 [%s]: average k-th inner product", p.Name),
			"k", x, []string{"avg IP"}, [][]float64{y})
		out += "\n"
	}
	return out, nil
}

// Figure9 renders the distribution of per-query retrieval costs for
// F-SIR at k=1.
func Figure9(cfg Config) (string, error) {
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		res, err := RunMethod("F-SIR", ds, 1, true)
		if err != nil {
			return "", err
		}
		micros := make([]float64, len(res.PerQuery))
		for i, qc := range res.PerQuery {
			micros[i] = float64(qc.Duration.Microseconds())
		}
		out += Histogram(fmt.Sprintf("Figure 9 [%s]: per-query cost (µs), F-SIR k=1", p.Name), micros, 20)
		out += "\n"
	}
	return out, nil
}

// Figure12 renders the distribution of entire-qᵀp counts per query for
// F-SIR at k=1.
func Figure12(cfg Config) (string, error) {
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		res, err := RunMethod("F-SIR", ds, 1, true)
		if err != nil {
			return "", err
		}
		counts := make([]float64, len(res.PerQuery))
		for i, qc := range res.PerQuery {
			counts[i] = float64(qc.FullProducts)
		}
		out += Histogram(fmt.Sprintf("Figure 12 [%s]: entire qTp computations per query, F-SIR k=1", p.Name), counts, 20)
		out += "\n"
	}
	return out, nil
}

// Figure10 sweeps ρ (and reports the induced w) for F-S and F-SIR
// against the SS-L constant.
func Figure10(cfg Config) (string, error) {
	rhos := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		sslRes, err := RunMethod("SS-L", ds, 1, false)
		if err != nil {
			return "", err
		}
		t := NewTable(fmt.Sprintf("Figure 10 [%s]: retrieval time vs rho (k=1); SS-L = %s s",
			p.Name, Seconds(sslRes.Retrieve)),
			"rho", "w", "F-S (s)", "F-SIR (s)")
		for _, rho := range rhos {
			var wUsed int
			var row []string
			row = append(row, fmt.Sprintf("%.1f", rho))
			times := map[string]time.Duration{}
			for _, variant := range []string{"F-S", "F-SIR"} {
				opts, err := core.OptionsForVariant(variant)
				if err != nil {
					return "", err
				}
				opts.Rho = rho
				idx, err := core.NewIndex(ds.Items, opts)
				if err != nil {
					return "", err
				}
				wUsed = idx.W()
				b := Built{Name: variant, Searcher: engine.New(core.NewSharded(idx, 1), 1)}
				times[variant] = Run(b, ds, 1, false).Retrieve
			}
			row = append(row, fmt.Sprintf("%d", wUsed), Seconds(times["F-S"]), Seconds(times["F-SIR"]))
			t.AddRow(row...)
		}
		out += t.String() + "\n"
	}
	return out, nil
}

// Figure11 sweeps the integer scaling parameter e for F-SIR.
func Figure11(cfg Config) (string, error) {
	es := []float64{10, 30, 60, 100, 127}
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		x := make([]float64, len(es))
		y := make([]float64, len(es))
		for i, e := range es {
			idx, err := core.NewIndex(ds.Items, core.Options{SVD: true, Int: true, Reduction: true, E: e})
			if err != nil {
				return "", err
			}
			b := Built{Name: "F-SIR", Searcher: engine.New(core.NewSharded(idx, 1), 1)}
			x[i] = e
			y[i] = Run(b, ds, 1, false).Retrieve.Seconds()
		}
		out += Series(fmt.Sprintf("Figure 11 [%s]: retrieval time (s) vs e (k=1)", p.Name),
			"e", x, []string{"F-SIR"}, [][]float64{y})
		out += "\n"
	}
	return out, nil
}

// Figure13 measures the PCATree baseline: retrieval time and RMSE@k.
func Figure13(cfg Config) (string, error) {
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		start := time.Now()
		tree := engine.New(pcatree.NewKernel(pcatree.New(ds.Items, pcatree.Options{LeafSize: 64}), 1), 1)
		prep := time.Since(start)

		start = time.Now()
		for i := 0; i < ds.Queries.Rows; i++ {
			tree.Search(ds.Queries.Row(i), 1)
		}
		retr := time.Since(start)

		exact := scan.NewNaive(ds.Items)
		ks := []int{1, 2, 5, 10}
		x := make([]float64, len(ks))
		y := make([]float64, len(ks))
		for i, k := range ks {
			x[i] = float64(k)
			y[i] = pcatree.RMSEAtK(tree, exact, firstRows(ds.Queries, 50), k)
		}
		out += fmt.Sprintf("PCATree [%s]: retrieve %s s (preprocess %s s)\n", p.Name, Seconds(retr), Seconds(prep))
		out += Series(fmt.Sprintf("Figure 13 [%s]: PCATree RMSE@k", p.Name),
			"k", x, []string{"RMSE@k"}, [][]float64{y})
		out += "\n"
	}
	return out, nil
}

// Figure14 renders the distribution of factor values (Figures 3 and 14).
func Figure14(cfg Config) (string, error) {
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		vals := append([]float64(nil), ds.Items.Data...)
		vals = append(vals, ds.Queries.Data...)
		out += Histogram(fmt.Sprintf("Figure 14 [%s]: distribution of factor values", p.Name), vals, 24)
		out += "\n"
	}
	return out, nil
}

// Figure15 shows the average cumulative share of the inner product after
// each dimension, before (original order) and after the SVD
// transformation.
func Figure15(cfg Config) (string, error) {
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		d := ds.Items.Cols
		thin, err := svd.Decompose(ds.Items, 0)
		if err != nil {
			return "", err
		}
		nq := ds.Queries.Rows
		if nq > 20 {
			nq = 20
		}
		before := make([]float64, d)
		after := make([]float64, d)
		var samples int
		for qi := 0; qi < nq; qi++ {
			q := ds.Queries.Row(qi)
			qbar := thin.TransformQuery(q)
			for i := 0; i < ds.Items.Rows; i += 97 { // stride-sample items
				row := ds.Items.Row(i)
				brow := thin.V1.Row(i)
				total := vec.Dot(q, row)
				if math.Abs(total) < 1e-9 {
					continue
				}
				samples++
				var cb, ca float64
				for s := 0; s < d; s++ {
					cb += q[s] * row[s]
					ca += qbar[s] * brow[s]
					before[s] += cb / total
					after[s] += ca / total
				}
			}
		}
		if samples == 0 {
			continue
		}
		x := make([]float64, d)
		for s := 0; s < d; s++ {
			x[s] = float64(s + 1)
			before[s] /= float64(samples)
			after[s] /= float64(samples)
		}
		out += Series(fmt.Sprintf("Figure 15 [%s]: avg cumulative IP share per dimension", p.Name),
			"dim", x, []string{"Naive", "F-S"}, [][]float64{before, after})
		out += "\n"
	}
	return out, nil
}

// Figure16And17 shows the average absolute scalar per dimension for
// query and item vectors, before and after the SVD transformation.
func Figure16And17(cfg Config) (string, error) {
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		d := ds.Items.Cols
		thin, err := svd.Decompose(ds.Items, 0)
		if err != nil {
			return "", err
		}
		qBefore, qAfter := make([]float64, d), make([]float64, d)
		for i := 0; i < ds.Queries.Rows; i++ {
			q := ds.Queries.Row(i)
			qbar := thin.TransformQuery(q)
			for s := 0; s < d; s++ {
				qBefore[s] += math.Abs(q[s])
				qAfter[s] += math.Abs(qbar[s])
			}
		}
		pBefore, pAfter := make([]float64, d), make([]float64, d)
		for i := 0; i < ds.Items.Rows; i++ {
			row := ds.Items.Row(i)
			brow := thin.V1.Row(i)
			for s := 0; s < d; s++ {
				pBefore[s] += math.Abs(row[s])
				pAfter[s] += math.Abs(brow[s])
			}
		}
		x := make([]float64, d)
		for s := 0; s < d; s++ {
			x[s] = float64(s + 1)
			qBefore[s] /= float64(ds.Queries.Rows)
			qAfter[s] /= float64(ds.Queries.Rows)
			pBefore[s] /= float64(ds.Items.Rows)
			pAfter[s] /= float64(ds.Items.Rows)
		}
		out += Series(fmt.Sprintf("Figures 16/17 [%s]: avg |scalar| per dimension", p.Name),
			"dim", x, []string{"q before", "q after", "p before", "p after"},
			[][]float64{qBefore, qAfter, pBefore, pAfter})
		out += "\n"
	}
	return out, nil
}

// Figure18And19 shows the mean profile of the original vectors after
// sorting each vector's absolute values in decreasing order — the best
// per-vector reordering incremental pruning could hope for without SVD.
func Figure18And19(cfg Config) (string, error) {
	out := ""
	for _, p := range cfg.profiles() {
		ds := cfg.Load(p)
		d := ds.Items.Cols
		profile := func(m *vec.Matrix) []float64 {
			acc := make([]float64, d)
			tmp := make([]float64, d)
			for i := 0; i < m.Rows; i++ {
				row := m.Row(i)
				for s, v := range row {
					tmp[s] = math.Abs(v)
				}
				sort.Sort(sort.Reverse(sort.Float64Slice(tmp)))
				for s := range tmp {
					acc[s] += tmp[s]
				}
			}
			for s := range acc {
				acc[s] /= float64(m.Rows)
			}
			return acc
		}
		x := make([]float64, d)
		for s := range x {
			x[s] = float64(s + 1)
		}
		out += Series(fmt.Sprintf("Figures 18/19 [%s]: mean sorted |value| profile", p.Name),
			"rank", x, []string{"q", "p"}, [][]float64{profile(ds.Queries), profile(ds.Items)})
		out += "\n"
	}
	return out, nil
}

// Figure20 sweeps the factorization rank d for SS-L versus F-SIR.
func Figure20(cfg Config) (string, error) {
	dims := []int{10, 50, 80, 100}
	out := ""
	for _, p := range cfg.profiles() {
		x := make([]float64, len(dims))
		ys := [][]float64{make([]float64, len(dims)), make([]float64, len(dims))}
		for i, d := range dims {
			ds := data.Generate(p, cfg.Items, cfg.Queries, d)
			sslRes, err := RunMethod("SS-L", ds, 1, false)
			if err != nil {
				return "", err
			}
			fsirRes, err := RunMethod("F-SIR", ds, 1, false)
			if err != nil {
				return "", err
			}
			x[i] = float64(d)
			ys[0][i] = sslRes.Retrieve.Seconds()
			ys[1][i] = fsirRes.Retrieve.Seconds()
		}
		out += Series(fmt.Sprintf("Figure 20 [%s]: retrieval time (s) vs d (k=1)", p.Name),
			"d", x, []string{"SS-L", "F-SIR"}, ys)
		out += "\n"
	}
	return out, nil
}
