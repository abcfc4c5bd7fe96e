package experiment

import (
	"context"
	"fmt"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/core"
	"scalefree/internal/equivalence"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
	"scalefree/internal/search"
)

// PlanE1 measures Theorem 1 in the weak model: for every weak algorithm
// and several (p, m), the expected number of requests to find vertex n
// grows at least like √n, and pointwise dominates the Lemma-1 bound
// |V|·P(E)/2.
func PlanE1(cfg Config) (*Plan, error) {
	sizes := cfg.sizes(512, 5)
	reps := cfg.scaleInt(24, 6)
	b := newPlanBuilder()
	type cell struct {
		p float64
		m int
		*scalingCell
	}
	var cells []cell
	for _, p := range []float64{0.25, 0.5, 0.75, 1.0} {
		for _, m := range []int{1, 2} {
			for _, c := range addBattery(b, cfg, 1+uint64(len(cells)),
				fmt.Sprintf("E1/p=%v/m=%d", p, m), search.WeakAlgorithms(), sizes,
				func(n int) core.GraphGen { return core.MoriGen(mori.Config{N: n, M: m, P: p}) },
				func(n int, _ *rng.RNG) (float64, error) { return core.Theorem1Bound(n, p) },
				core.SearchSpec{Reps: reps}) {
				cells = append(cells, cell{p: p, m: m, scalingCell: c})
			}
		}
	}
	return b.build(func(results []any) ([]Table, error) {
		table := &Table{
			Title: "E1  Theorem 1 (weak model) — expected requests to find vertex n in Móri graphs",
			Columns: []string{"algorithm", "p", "m", "n(max)", "mean@max", "bound@max",
				"fit-exponent", "±se", "R2", "found-rate"},
			Notes: []string{
				"theorem: exponent >= 0.5 and mean >= bound at every n (bound = |V|·P(E)/2, exact)",
				fmt.Sprintf("sizes %v, %d reps per point; walks censored at %d·n requests", sizes, reps, walkBudgetFactor),
			},
		}
		for _, c := range cells {
			res, last, err := c.collect(results)
			if err != nil {
				return nil, err
			}
			table.AddRow(res.Algorithm, c.p, c.m, last.N,
				last.Measurement.Requests.Mean, last.Bound,
				res.Fit.Exponent, res.Fit.ExponentSE, res.Fit.R2,
				last.Measurement.FoundRate)
		}
		return []Table{*table}, nil
	}), nil
}

// PlanE2 measures Theorem 1 in the strong model for p < 1/2: the
// expected number of requests grows at least like n^(1/2-p).
func PlanE2(cfg Config) (*Plan, error) {
	sizes := cfg.sizes(512, 5)
	reps := cfg.scaleInt(24, 6)
	b := newPlanBuilder()
	type cell struct {
		p float64
		*scalingCell
	}
	var cells []cell
	for _, p := range []float64{0.1, 0.25, 0.4} {
		for _, c := range addBattery(b, cfg, 101+uint64(len(cells)),
			fmt.Sprintf("E2/p=%v", p), search.StrongAlgorithms(), sizes,
			func(n int) core.GraphGen { return core.MoriGen(mori.Config{N: n, M: 1, P: p}) },
			nil, core.SearchSpec{Reps: reps}) {
			cells = append(cells, cell{p: p, scalingCell: c})
		}
	}
	return b.build(func(results []any) ([]Table, error) {
		table := &Table{
			Title: "E2  Theorem 1 (strong model) — expected requests, Móri graphs with p < 1/2",
			Columns: []string{"algorithm", "p", "n(max)", "mean@max",
				"fit-exponent", "±se", "bound-exponent", "found-rate"},
			Notes: []string{
				"theorem: fitted exponent >= 1/2 - p for any strong-model algorithm",
				fmt.Sprintf("sizes %v, %d reps per point", sizes, reps),
			},
		}
		for _, c := range cells {
			res, last, err := c.collect(results)
			if err != nil {
				return nil, err
			}
			table.AddRow(res.Algorithm, c.p, last.N,
				last.Measurement.Requests.Mean,
				res.Fit.Exponent, res.Fit.ExponentSE,
				core.StrongModelExponent(c.p),
				last.Measurement.FoundRate)
		}
		return []Table{*table}, nil
	}), nil
}

// cfConfig is the Cooper–Frieze parameterization used by E3 and E6/E7.
func cfConfig(n int, alpha float64) cooperfrieze.Config {
	return cooperfrieze.Config{
		N:          n,
		Alpha:      alpha,
		Beta:       0.5,
		Gamma:      0.5,
		Delta:      0.5,
		AllowLoops: true,
	}
}

// PlanE3 measures Theorem 2: Ω(√n) weak-model search cost in
// Cooper–Frieze graphs, with the Lemma-1 bound estimated by Monte
// Carlo (each per-size bound is its own trial, driven by the trial's
// private RNG).
func PlanE3(cfg Config) (*Plan, error) {
	sizes := cfg.sizes(512, 4)
	reps := cfg.scaleInt(24, 6)
	mcReps := cfg.scaleInt(400, 100)
	b := newPlanBuilder()
	type cell struct {
		alpha float64
		*scalingCell
	}
	var cells []cell
	for _, alpha := range []float64{0.5, 0.8} {
		for _, c := range addBattery(b, cfg, 201+uint64(len(cells)),
			fmt.Sprintf("E3/alpha=%v", alpha), search.WeakAlgorithms(), sizes,
			func(n int) core.GraphGen { return core.CooperFriezeGen(cfConfig(n, alpha)) },
			func(n int, r *rng.RNG) (float64, error) {
				bound, _, _, err := equivalence.Lemma1BoundCF(r, cfConfig(n, alpha), mcReps)
				return bound, err
			},
			core.SearchSpec{Reps: reps}) {
			cells = append(cells, cell{alpha: alpha, scalingCell: c})
		}
	}
	return b.build(func(results []any) ([]Table, error) {
		table := &Table{
			Title: "E3  Theorem 2 — expected requests to find vertex n in Cooper–Frieze graphs (weak model)",
			Columns: []string{"algorithm", "alpha", "n(max)", "mean@max", "bound@max",
				"fit-exponent", "±se", "found-rate"},
			Notes: []string{
				"theorem: exponent >= 0.5; bound = |V|·P̂(E)/2 with P̂ estimated by Monte Carlo",
				fmt.Sprintf("sizes %v, %d reps per point, %d MC generations per bound", sizes, reps, mcReps),
			},
		}
		for _, c := range cells {
			res, last, err := c.collect(results)
			if err != nil {
				return nil, err
			}
			table.AddRow(res.Algorithm, c.alpha, last.N,
				last.Measurement.Requests.Mean, last.Bound,
				res.Fit.Exponent, res.Fit.ExponentSE,
				last.Measurement.FoundRate)
		}
		return []Table{*table}, nil
	}), nil
}

// PlanE4 reports the equivalence-event probabilities of Lemmas 2-3:
// exact product formula vs Monte Carlo vs the e^{-(1-p)} floor, plus
// the exhaustive Lemma-2 verification on small trees. Each (p, n)
// Monte-Carlo estimate and each Lemma-2 tree check is one trial.
func PlanE4(cfg Config) (*Plan, error) {
	mcReps := cfg.scaleInt(20000, 2000)
	b := newPlanBuilder()
	base := cfg.seed(300)

	type probCell struct {
		p   float64
		n   int
		idx int
	}
	var probCells []probCell
	stream := uint64(0)
	for _, p := range []float64{0.25, 0.5, 0.75, 1.0} {
		for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
			stream++
			idx := b.add(fmt.Sprintf("E4a/p=%v/n=%d", p, n), rng.DeriveSeed(base, stream),
				func(_ context.Context, r *rng.RNG, _ *core.Scratch) (any, error) {
					a, bw, err := equivalence.Window(n)
					if err != nil {
						return nil, err
					}
					exact, err := equivalence.ExactEventProb(p, a, bw)
					if err != nil {
						return nil, err
					}
					est, se, err := equivalence.MonteCarloEventProb(r, p, a, bw, mcReps)
					if err != nil {
						return nil, err
					}
					return EquivProbResult{A: a, B: bw, Exact: exact, Est: est, SE: se,
						Floor: equivalence.Lemma3Bound(p)}, nil
				})
			probCells = append(probCells, probCell{p: p, n: n, idx: idx})
		}
	}

	type l2Cell struct {
		size, a, b int
		p          float64
		idx        int
	}
	var l2Cells []l2Cell
	for _, tc := range []struct {
		size, a, b int
		p          float64
	}{
		{6, 2, 5, 0.5},
		{7, 3, 6, 0.5},
		{7, 3, 6, 0.25},
		{8, 4, 7, 0.75},
	} {
		stream++
		idx := b.add(fmt.Sprintf("E4b/size=%d/p=%v", tc.size, tc.p), rng.DeriveSeed(base, stream),
			func(context.Context, *rng.RNG, *core.Scratch) (any, error) {
				checked, err := equivalence.VerifyLemma2(tc.size, tc.a, tc.b, tc.p, 1e-12)
				result := "ok"
				if err != nil {
					result = err.Error()
				}
				return Lemma2Result{Checked: checked, Result: result}, nil
			})
		l2Cells = append(l2Cells, l2Cell{size: tc.size, a: tc.a, b: tc.b, p: tc.p, idx: idx})
	}

	return b.build(func(results []any) ([]Table, error) {
		probs := &Table{
			Title:   "E4a  P(E_{a,b}) for the canonical window b = a+⌊√(a-1)⌋ (Lemma 3)",
			Columns: []string{"p", "a", "b", "exact", "monte-carlo", "±se", "floor e^{-(1-p)}", "exact>=floor"},
			Notes:   []string{fmt.Sprintf("%d Monte-Carlo generations per estimate", mcReps)},
		}
		for _, c := range probCells {
			pr, ok := results[c.idx].(EquivProbResult)
			if !ok {
				return nil, fmt.Errorf("E4a p=%v n=%d: result type %T", c.p, c.n, results[c.idx])
			}
			probs.AddRow(c.p, pr.A, pr.B, pr.Exact, pr.Est, pr.SE, pr.Floor,
				fmt.Sprintf("%v", pr.Exact >= pr.Floor-1e-12))
		}
		lemma2 := &Table{
			Title:   "E4b  Exhaustive Lemma-2 verification: P(T) = P(σT) conditional on E_{a,b}",
			Columns: []string{"tree-size", "window", "p", "pairs-checked", "result"},
		}
		for _, c := range l2Cells {
			lr, ok := results[c.idx].(Lemma2Result)
			if !ok {
				return nil, fmt.Errorf("E4b size=%d: result type %T", c.size, results[c.idx])
			}
			lemma2.AddRow(c.size, fmt.Sprintf("(%d,%d]", c.a, c.b), c.p, lr.Checked, lr.Result)
		}
		return []Table{*probs, *lemma2}, nil
	}), nil
}
