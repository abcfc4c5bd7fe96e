package experiment

import (
	"context"
	"fmt"
	"math"

	"scalefree/internal/configmodel"
	"scalefree/internal/core"
	"scalefree/internal/graph"
	"scalefree/internal/kleinberg"
	"scalefree/internal/mori"
	"scalefree/internal/percolation"
	"scalefree/internal/rng"
	"scalefree/internal/search"
	"scalefree/internal/stats"
)

// PlanE8 reproduces Adamic et al.: on power-law configuration graphs
// with 2 < k < 3, high-degree (strong-model) search scales like
// n^(2(1-2/k)) while the random walk scales like n^(3(1-2/k)) — greedy
// wins, and both are sublinear. The Welch separation test runs in the
// reduce over the per-replication samples of the largest size.
func PlanE8(cfg Config) (*Plan, error) {
	sizes := cfg.sizes(1024, 4)
	reps := cfg.scaleInt(60, 8)
	b := newPlanBuilder()
	algs := []search.Algorithm{search.NewDegreeGreedyStrong(), search.NewRandomWalkStrong()}
	theory := []func(k float64) float64{core.AdamicGreedyExponent, core.AdamicWalkExponent}
	type battery struct {
		k     float64
		cells []*scalingCell // greedy, walk
	}
	var batteries []battery
	for i, k := range []float64{2.1, 2.3, 2.5} {
		batteries = append(batteries, battery{k: k, cells: addBattery(b, cfg, 701+uint64(i*len(algs)),
			fmt.Sprintf("E8/k=%v", k), algs, sizes,
			func(n int) core.GraphGen {
				return func(r *rng.RNG, _ *core.Scratch) (*graph.Graph, error) {
					g, _, err := configmodel.Config{N: n, Exponent: k, MinDeg: 2}.GenerateGiant(r)
					return g, err
				}
			},
			nil, core.SearchSpec{
				Reps:            reps,
				RandomEndpoints: true,
				Budget:          walkBudgetFactor * sizes[len(sizes)-1],
			})})
	}
	return b.build(func(results []any) ([]Table, error) {
		table := &Table{
			Title: "E8  Adamic et al. — search on power-law configuration graphs (giant component)",
			Columns: []string{"algorithm", "k", "n(max)", "mean@max",
				"fit-exponent", "±se", "theory-exponent", "found-rate"},
			Notes: []string{
				"theory: greedy 2(1-2/k), walk 3(1-2/k); mean-field, so shape not constants",
				fmt.Sprintf("sizes %v (pre-extraction), %d reps, random start and target", sizes, reps),
			},
		}
		welch := &Table{
			Title:   "E8b  Greedy vs walk separation at the largest size (Welch t-test)",
			Columns: []string{"k", "greedy-mean", "walk-mean", "t", "p-value", "greedy-wins"},
			Notes:   []string{"the paper's related-work claim: high-degree search beats the walk"},
		}
		for _, bat := range batteries {
			last := make([]core.Measurement, len(bat.cells))
			for ai, c := range bat.cells {
				res, pt, err := c.collect(results)
				if err != nil {
					return nil, err
				}
				last[ai] = pt.Measurement
				table.AddRow(res.Algorithm, bat.k, pt.N,
					pt.Measurement.Requests.Mean,
					res.Fit.Exponent, res.Fit.ExponentSE,
					theory[ai](bat.k),
					pt.Measurement.FoundRate)
			}
			wres, err := stats.WelchTTest(last[0].Samples, last[1].Samples)
			if err != nil {
				return nil, fmt.Errorf("E8 Welch k=%v: %w", bat.k, err)
			}
			welch.AddRow(bat.k, last[0].Requests.Mean, last[1].Requests.Mean, wres.T, wres.PValue,
				fmt.Sprintf("%v", last[0].Requests.Mean < last[1].Requests.Mean))
		}
		return []Table{*table, *welch}, nil
	}), nil
}

// PlanE9 reproduces the navigability contrast: Kleinberg greedy routing
// across the long-range exponent r, side by side with the best
// label-greedy searcher on a Móri graph of comparable size. Only the
// grid at r = 2 stays polylogarithmic; the scale-free searcher pays the
// Ω(√n) toll. One trial per (r, L) routing cell and one per contrast
// size.
func PlanE9(cfg Config) (*Plan, error) {
	reps := cfg.scaleInt(300, 50)
	searchReps := cfg.scaleInt(24, 6)
	b := newPlanBuilder()
	ls := []int{32, 64, 128}
	rExps := []float64{0, 1, 2, 3}

	// Grid cells keep the historical seeding: the graph stream (the
	// trial's RNG) depends only on L, and so does the source stream —
	// so numbers match the serial harness exactly.
	gridIdx := make([][]int, len(rExps)) // [rExp][li] -> trial index
	for ri, rExp := range rExps {
		gridIdx[ri] = make([]int, len(ls))
		for li, L := range ls {
			gridIdx[ri][li] = b.add(
				fmt.Sprintf("E9a/r=%v/L=%d", rExp, L),
				cfg.seed(800+uint64(li)),
				func(_ context.Context, r *rng.RNG, _ *core.Scratch) (any, error) {
					g, err := kleinberg.Config{L: L, R: rExp}.Generate(r)
					if err != nil {
						return nil, fmt.Errorf("E9 L=%d r=%v: %w", L, rExp, err)
					}
					src := rng.New(cfg.seed(820 + uint64(li)))
					total := 0
					n := L * L
					for i := 0; i < reps; i++ {
						s := graph.Vertex(src.IntRange(1, n))
						t := graph.Vertex(src.IntRange(1, n))
						total += g.GreedyRoute(s, t, 0).Steps
					}
					return float64(total) / float64(reps), nil
				})
		}
	}

	// Contrast cells: one trial per size, each a full MeasureSearch
	// replication set (the per-size seeds match the serial harness).
	contrastSizes := make([]int, 0, 3)
	for _, n := range []int{1024, 4096, 16384} {
		contrastSizes = append(contrastSizes, cfg.scaleInt(n, 128))
	}
	contrastIdx := make([]int, len(contrastSizes))
	for i, n := range contrastSizes {
		seed := cfg.seed(850 + uint64(i))
		contrastIdx[i] = b.add(
			fmt.Sprintf("E9b/n=%d", n), seed,
			func(_ context.Context, _ *rng.RNG, s *core.Scratch) (any, error) {
				return core.MeasureSearch(
					core.MoriGen(mori.Config{N: n, M: 1, P: 0.5}),
					core.SearchSpec{
						Algorithm: search.NewIDGreedyWeak(),
						Reps:      searchReps,
						Seed:      seed,
					}, s)
			})
	}

	return b.build(func(results []any) ([]Table, error) {
		grid := &Table{
			Title:   "E9a  Kleinberg greedy routing: mean steps per delivery",
			Columns: []string{"r", "L=32", "L=64", "L=128", "ln²(n) @128"},
			Notes: []string{
				"r = 2 is the navigable exponent (O(log² n)); r < 2 grows as L^((2-r)/3)·…, r > 2 as a higher power",
				"finite-size note: the r<2 polynomial separation emerges slowly; r=3 is already clearly worse",
			},
		}
		for ri, rExp := range rExps {
			row := []interface{}{rExp}
			for li := range ls {
				mean, ok := results[gridIdx[ri][li]].(float64)
				if !ok {
					return nil, fmt.Errorf("E9a r=%v L=%d: result type %T", rExp, ls[li], results[gridIdx[ri][li]])
				}
				row = append(row, mean)
			}
			row = append(row, logSquared(ls[len(ls)-1]))
			grid.AddRow(row...)
		}

		contrast := &Table{
			Title:   "E9b  Scale-free contrast: id-greedy search on Móri graphs (weak model)",
			Columns: []string{"n", "mean-requests", "√n", "theorem bound"},
			Notes:   []string{"same identity-greedy idea as geographic greedy routing, defeated by Ω(√n)"},
		}
		for i, n := range contrastSizes {
			m, ok := results[contrastIdx[i]].(core.Measurement)
			if !ok {
				return nil, fmt.Errorf("E9b n=%d: result type %T", n, results[contrastIdx[i]])
			}
			bound, err := core.Theorem1Bound(n, 0.5)
			if err != nil {
				return nil, err
			}
			contrast.AddRow(n, m.Requests.Mean, sqrtf(n), bound)
		}
		return []Table{*grid, *contrast}, nil
	}), nil
}

// PlanE10 reproduces Sarshar et al.'s percolation search on a power-law
// giant component: hit rate and message cost across replication walk
// lengths and broadcast probabilities. The giant component is generated
// once at plan time and shared read-only by the per-(walk, q) trials.
func PlanE10(cfg Config) (*Plan, error) {
	n := cfg.scaleInt(1<<14, 2048)
	queries := cfg.scaleInt(60, 15)
	g, _, err := configmodel.Config{N: n, Exponent: 2.3, MinDeg: 1}.GenerateGiant(rng.New(cfg.seed(900)))
	if err != nil {
		return nil, fmt.Errorf("E10 generating graph: %w", err)
	}
	b := newPlanBuilder()

	type cell struct {
		walk int
		q    float64
		idx  int
	}
	var cells []cell
	nv := g.NumVertices()
	queryBase := cfg.seed(901)
	stream := uint64(0)
	for _, walk := range []int{isqrtInt(nv) / 2, isqrtInt(nv), 2 * isqrtInt(nv)} {
		for _, q := range []float64{0.1, 0.2, 0.3} {
			stream++
			idx := b.add(
				fmt.Sprintf("E10/walk=%d/q=%v", walk, q),
				rng.DeriveSeed(queryBase, stream),
				func(_ context.Context, r *rng.RNG, _ *core.Scratch) (any, error) {
					hits, msgs, reached := 0, 0, 0
					for i := 0; i < queries; i++ {
						origin := graph.Vertex(r.IntRange(1, nv))
						replicas := percolation.Replicate(g, r, origin, walk)
						start := graph.Vertex(r.IntRange(1, nv))
						res, err := percolation.Query(g, r, replicas, start, percolation.Config{
							QueryWalk:     walk / 2,
							BroadcastProb: q,
						})
						if err != nil {
							return nil, fmt.Errorf("E10 walk=%d q=%v: %w", walk, q, err)
						}
						if res.Hit {
							hits++
						}
						msgs += res.Messages
						reached += res.Reached
					}
					return PercolationCellResult{Hits: hits, Msgs: msgs, Reached: reached}, nil
				})
			cells = append(cells, cell{walk: walk, q: q, idx: idx})
		}
	}

	return b.build(func(results []any) ([]Table, error) {
		table := &Table{
			Title:   "E10  Percolation search (Sarshar et al.) on a k=2.3 giant component",
			Columns: []string{"replication-walk", "broadcast-q", "hit-rate", "mean-messages", "msg/edges", "mean-reached"},
			Notes: []string{
				fmt.Sprintf("giant component: %d vertices, %d edges; %d queries per cell",
					g.NumVertices(), g.NumEdges(), queries),
				"claim: sublinear traffic with high hit rate once replication is polynomial in n",
			},
		}
		for _, c := range cells {
			cr, ok := results[c.idx].(PercolationCellResult)
			if !ok {
				return nil, fmt.Errorf("E10 walk=%d q=%v: result type %T", c.walk, c.q, results[c.idx])
			}
			table.AddRow(c.walk, c.q,
				float64(cr.Hits)/float64(queries),
				float64(cr.Msgs)/float64(queries),
				float64(cr.Msgs)/float64(queries)/float64(g.NumEdges()),
				float64(cr.Reached)/float64(queries))
		}
		return []Table{*table}, nil
	}), nil
}

func logSquared(l int) float64 {
	ln := math.Log(float64(l) * float64(l))
	return ln * ln
}

func sqrtf(n int) float64 {
	return math.Sqrt(float64(n))
}

func isqrtInt(x int) int {
	if x < 0 {
		return 0
	}
	return int(math.Sqrt(float64(x)))
}
