package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"

	"scalefree/internal/ba"
	"scalefree/internal/configmodel"
	"scalefree/internal/core"
	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

// PlanE5 fits the growth exponent of the maximum indegree: Móri's
// theorem gives Δ(n) ~ n^p for the Móri tree, versus n^(1/2) for
// Barabási–Albert — the contrast that decides whether the strong-model
// reduction is non-trivial. Every (model, size, replication) generation
// is one trial.
func PlanE5(cfg Config) (*Plan, error) {
	sizes := cfg.sizes(2048, 5)
	reps := cfg.scaleInt(10, 3)
	b := newPlanBuilder()

	type cell struct {
		name     string
		expected float64
		idx      [][]int // [size][rep] -> trial index
	}
	var cells []cell
	addCell := func(name string, expected float64, gen func(n int, r *rng.RNG, s *core.Scratch) (int, error), stream uint64) {
		c := cell{name: name, expected: expected, idx: make([][]int, len(sizes))}
		cellSeed := cfg.seed(400 + stream)
		for i, n := range sizes {
			c.idx[i] = make([]int, reps)
			for rep := 0; rep < reps; rep++ {
				// Seed derivation matches the historical serial harness:
				// one stream per (size, replication) pair.
				c.idx[i][rep] = b.add(
					fmt.Sprintf("E5/%s/n=%d/rep=%d", name, n, rep),
					rng.DeriveSeed(cellSeed, uint64(i*1000+rep)),
					func(_ context.Context, r *rng.RNG, s *core.Scratch) (any, error) {
						d, err := gen(n, r, s)
						return float64(d), err
					})
			}
		}
		cells = append(cells, c)
	}

	for i, p := range []float64{0.25, 0.5, 0.75, 1.0} {
		addCell(fmt.Sprintf("mori p=%.2f", p), p, func(n int, r *rng.RNG, s *core.Scratch) (int, error) {
			t, err := mori.GenerateTreeScratch(r, n, p, &s.Model.Mori)
			if err != nil {
				return 0, err
			}
			s.Degs = t.InDegreesInto(s.Degs)
			return slices.Max(s.Degs), nil
		}, uint64(i))
	}
	addCell("barabasi-albert m=1", 0.5, func(n int, r *rng.RNG, s *core.Scratch) (int, error) {
		g, err := ba.Config{N: n, M: 1}.GenerateScratch(r, &s.Model.BA)
		if err != nil {
			return 0, err
		}
		return g.MaxDegree(), nil
	}, 50)

	return b.build(func(results []any) ([]Table, error) {
		table := &Table{
			Title:   "E5  Maximum-degree growth Δ(n) ~ n^β",
			Columns: []string{"model", "expected β", "fitted β", "±se", "R2", "Δ at n(max)"},
			Notes: []string{
				"Móri strong-model bound needs β < 1/2, i.e. p < 1/2 (paper, Conclusion)",
				fmt.Sprintf("sizes %v, %d reps per point (mean of max indegree)", sizes, reps),
			},
		}
		for _, c := range cells {
			var ns, maxes []float64
			for i, n := range sizes {
				total := 0.0
				for _, idx := range c.idx[i] {
					d, ok := results[idx].(float64)
					if !ok {
						return nil, fmt.Errorf("E5 %s n=%d: result type %T", c.name, n, results[idx])
					}
					total += d
				}
				ns = append(ns, float64(n))
				maxes = append(maxes, total/float64(reps))
			}
			fit, err := stats.FitScaling(ns, maxes)
			if err != nil {
				return nil, fmt.Errorf("E5 %s: %w", c.name, err)
			}
			table.AddRow(c.name, c.expected, fit.Exponent, fit.ExponentSE, fit.R2, maxes[len(maxes)-1])
		}
		return []Table{*table}, nil
	}), nil
}

// PlanE6 fits power-law exponents to the degree distributions of every
// model — the scale-free premise of the paper. For the indegree-based
// Móri tree (attachment weight p·d_in + (1-p), i.e. d_in + β with
// β = (1-p)/p after normalization) the degree exponent is 2 + β =
// 1 + 1/p; for BA (total degree) it is 3; the configuration model
// reproduces its input exponent by construction. One trial per model:
// generate the graph and fit its tail.
func PlanE6(cfg Config) (*Plan, error) {
	n := cfg.scaleInt(1<<15, 2048)
	b := newPlanBuilder()

	fitGraph := func(g *graph.Graph, s *core.Scratch) (any, error) {
		degs := s.DegreesOf(g)
		fit, err := stats.FitPowerLawAuto(degs, 50)
		if err != nil {
			return nil, err
		}
		ccdf := stats.HistogramOf(degs).CCDF()
		slope, _, err := stats.CCDFLogLogSlope(ccdf, fit.Xmin)
		if err != nil {
			return nil, err
		}
		return PowerLawFitResult{N: g.NumVertices(), Alpha: fit.Alpha, StdErr: fit.StdErr,
			Xmin: fit.Xmin, SlopePlus1: slope + 1, MaxDeg: g.MaxDegree()}, nil
	}

	type cell struct {
		name     string
		expected float64
		idx      int
	}
	var cells []cell
	addCell := func(name string, expected float64, seed uint64, gen core.GraphGen) {
		idx := b.add("E6/"+name, seed, func(_ context.Context, r *rng.RNG, s *core.Scratch) (any, error) {
			g, err := gen(r, s)
			if err != nil {
				return nil, err
			}
			return fitGraph(g, s)
		})
		cells = append(cells, cell{name: name, expected: expected, idx: idx})
	}

	// A Móri tree is the m = 1 merged graph: the merge adds the same
	// edges Tree.Graph does, in the same order.
	for i, p := range []float64{0.5, 0.75, 1.0} {
		addCell(fmt.Sprintf("mori tree p=%.2f", p), 1+1/p, cfg.seed(500+uint64(i)),
			core.MoriGen(mori.Config{N: n, M: 1, P: p}))
	}
	addCell("mori merged m=4 p=0.75", 1+1/0.75, cfg.seed(510),
		core.MoriGen(mori.Config{N: n / 4, M: 4, P: 0.75}))
	addCell("barabasi-albert m=2", 3, cfg.seed(511), core.BAGen(ba.Config{N: n, M: 2}))
	for i, k := range []float64{2.1, 2.5} {
		addCell(fmt.Sprintf("config-model k=%.1f", k), k, cfg.seed(512+uint64(i)),
			func(r *rng.RNG, _ *core.Scratch) (*graph.Graph, error) {
				return configmodel.Config{N: n, Exponent: k}.Generate(r)
			})
	}
	addCell("cooper-frieze α=0.7", 0, cfg.seed(514), core.CooperFriezeGen(cfConfig(n, 0.7)))

	return b.build(func(results []any) ([]Table, error) {
		table := &Table{
			Title:   "E6  Degree distributions (total degree, MLE tail fit)",
			Columns: []string{"model", "n", "expected α", "fitted α", "±se", "xmin", "ccdf-slope+1", "max-degree"},
			Notes: []string{
				"expected: Móri tree 1+1/p (indegree attachment); BA 3; config model its input k; CF depends on (α,β,γ,δ)",
				"ccdf-slope+1 is the log-log CCDF regression estimate of α (CCDF decays with α-1)",
			},
		}
		for _, c := range cells {
			fr, ok := results[c.idx].(PowerLawFitResult)
			if !ok {
				return nil, fmt.Errorf("E6 %s: result type %T", c.name, results[c.idx])
			}
			expectedCell := "-"
			if c.expected > 0 {
				expectedCell = formatFloat(c.expected)
			}
			table.AddRow(c.name, fr.N, expectedCell, fr.Alpha, fr.StdErr, fr.Xmin, fr.SlopePlus1, fr.MaxDeg)
		}
		return []Table{*table}, nil
	}), nil
}

// PlanE7 measures distance growth: mean BFS distance and double-sweep
// diameter against log n — the "logarithmic diameter" the paper
// contrasts with its polynomial search bound. One trial per
// (model, size): generate the graph and sample distances.
func PlanE7(cfg Config) (*Plan, error) {
	sizes := cfg.sizes(1024, 5)
	srcSamples := cfg.scaleInt(12, 4)
	b := newPlanBuilder()

	gens := []struct {
		name   string
		genFor func(n int) core.GraphGen
	}{
		{"mori p=0.5 m=2", func(n int) core.GraphGen { return core.MoriGen(mori.Config{N: n, M: 2, P: 0.5}) }},
		{"cooper-frieze α=0.8", func(n int) core.GraphGen { return core.CooperFriezeGen(cfConfig(n, 0.8)) }},
		{"barabasi-albert m=2", func(n int) core.GraphGen { return core.BAGen(ba.Config{N: n, M: 2}) }},
	}
	type cell struct {
		name string
		n    int
		idx  int
	}
	var cells []cell
	for gi, gspec := range gens {
		for si, n := range sizes {
			gen := gspec.genFor(n)
			idx := b.add(fmt.Sprintf("E7/%s/n=%d", gspec.name, n),
				cfg.seed(600+uint64(gi*100+si)),
				func(_ context.Context, r *rng.RNG, s *core.Scratch) (any, error) {
					g, err := gen(r, s)
					if err != nil {
						return nil, err
					}
					sources := make([]graph.Vertex, srcSamples)
					for i := range sources {
						sources[i] = graph.Vertex(r.IntRange(1, g.NumVertices()))
					}
					dist, queue := s.BFSBuffers(g.NumVertices())
					return DistanceResult{
						MeanDist: graph.AverageDistanceSampledInto(g, sources, dist, queue),
						Diam:     graph.DoubleSweepLowerBoundInto(g, sources[0], dist, queue),
					}, nil
				})
			cells = append(cells, cell{name: gspec.name, n: n, idx: idx})
		}
	}

	return b.build(func(results []any) ([]Table, error) {
		table := &Table{
			Title:   "E7  Distance growth: logarithmic diameter vs polynomial search",
			Columns: []string{"model", "n", "mean-dist", "diam(lb)", "mean/ln(n)", "√n (contrast)"},
			Notes: []string{
				"mean/ln(n) stabilizing ⇒ logarithmic distances; the √n column is the search lower-bound scale",
			},
		}
		for _, c := range cells {
			dr, ok := results[c.idx].(DistanceResult)
			if !ok {
				return nil, fmt.Errorf("E7 %s n=%d: result type %T", c.name, c.n, results[c.idx])
			}
			table.AddRow(c.name, c.n, dr.MeanDist, dr.Diam,
				dr.MeanDist/math.Log(float64(c.n)), math.Sqrt(float64(c.n)))
		}
		return []Table{*table}, nil
	}), nil
}
