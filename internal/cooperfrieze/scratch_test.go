package cooperfrieze

import (
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
	"scalefree/internal/weights"
)

func resultsEqual(a, b *Result) bool {
	if a.Steps != b.Steps || a.OldSteps != b.OldSteps {
		return false
	}
	if a.Graph.NumVertices() != b.Graph.NumVertices() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		return false
	}
	for e := 0; e < a.Graph.NumEdges(); e++ {
		af, at := a.Graph.Endpoints(graph.EdgeID(e))
		bf, bt := b.Graph.Endpoints(graph.EdgeID(e))
		if af != bf || at != bt {
			return false
		}
	}
	for v := range a.ArrivalOutDeg {
		if a.ArrivalOutDeg[v] != b.ArrivalOutDeg[v] {
			return false
		}
	}
	return true
}

// TestGenerateScratchMatchesGenerate pins Generate and GenerateScratch
// to the same RNG stream: equal seeds must yield identical results
// whether or not buffers are reused.
func TestGenerateScratchMatchesGenerate(t *testing.T) {
	cfg := defaultConfig(250)
	var s Scratch
	for seed := uint64(1); seed <= 5; seed++ {
		want, err := cfg.Generate(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cfg.GenerateScratch(rng.New(seed), &s)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(want, got) {
			t.Fatalf("seed %d: scratch generation diverges from Generate", seed)
		}
	}
}

// TestGenerateScratchAllocsBounded pins the steady state of the
// scratch path: after warm-up, a repeated same-size generation only
// allocates the two small out-degree distribution tables — O(1) per
// graph, independent of N.
func TestGenerateScratchAllocsBounded(t *testing.T) {
	cfg := defaultConfig(500)
	var s Scratch
	r := rng.New(3)
	gen := func() {
		if _, err := cfg.GenerateScratch(r, &s); err != nil {
			t.Fatal(err)
		}
	}
	gen() // warm up the buffers
	for i := 0; i < 10; i++ {
		if allocs := testing.AllocsPerRun(1, gen); allocs > 10 {
			t.Errorf("steady-state GenerateScratch run %d allocates %v times, want O(1) <= 10", i, allocs)
			break
		}
	}
}

// GenerateFenwick is the historical O(N log N) generator drawing every
// preferential vertex from a Fenwick tree over indegrees. It samples
// exactly the same distribution as Generate and is kept as the
// reference implementation for the chi-square equivalence test and the
// sampler ablation (BenchmarkGenerate, DESIGN.md §5.2); equal seeds
// yield different (identically distributed) graphs because the
// samplers consume RNG streams differently.
func (c Config) GenerateFenwick(r *rng.RNG) (*Result, error) {
	qDist, pDist, err := c.tables()
	if err != nil {
		return nil, err
	}

	b := graph.NewBuilder(c.N, c.N*4)
	indeg := weights.NewFenwick(c.N)

	b.AddVertex()
	b.AddEdge(1, 1)
	indeg.Add(1, 1)

	res := &Result{ArrivalOutDeg: make([]int, c.N+1)}
	res.ArrivalOutDeg[1] = 1
	for b.NumVertices() < c.N {
		res.Steps++
		mustNew := !c.AllowLoops && b.NumVertices() == 1
		if mustNew || r.Bernoulli(c.Alpha) {
			v := b.AddVertex()
			edges := qDist.sample(r) + 1
			res.ArrivalOutDeg[v] = edges
			for i := 0; i < edges; i++ {
				w := c.pickTerminalFenwick(r, indeg, c.Beta, v, int(v)-1)
				b.AddEdge(v, w)
				indeg.Add(int(w), 1)
			}
			continue
		}
		res.OldSteps++
		src := c.pickOldSourceFenwick(r, b, indeg)
		edges := pDist.sample(r) + 1
		for i := 0; i < edges; i++ {
			w := c.pickTerminalFenwick(r, indeg, c.Gamma, src, b.NumVertices())
			b.AddEdge(src, w)
			indeg.Add(int(w), 1)
		}
	}
	res.Graph = b.Freeze()
	return res, nil
}

// pickTerminalFenwick is pickTerminal on the Fenwick reference sampler.
func (c Config) pickTerminalFenwick(r *rng.RNG, indeg *weights.Fenwick, prefProb float64, src graph.Vertex, limit int) graph.Vertex {
	const maxRetries = 32
	for attempt := 0; ; attempt++ {
		var w graph.Vertex
		if r.Bernoulli(prefProb) && indeg.PrefixSum(limit) > 0 {
			w = graph.Vertex(indeg.Sample(r))
			if int(w) > limit {
				continue
			}
		} else {
			w = graph.Vertex(r.IntRange(1, limit))
		}
		if c.AllowLoops || w != src || limit == 1 {
			return w
		}
		if attempt >= maxRetries {
			w = graph.Vertex(r.IntRange(1, limit-1))
			if w >= src {
				w++
			}
			return w
		}
	}
}

// pickOldSourceFenwick is pickOldSource on the Fenwick reference
// sampler.
func (c Config) pickOldSourceFenwick(r *rng.RNG, b *graph.Builder, indeg *weights.Fenwick) graph.Vertex {
	if r.Bernoulli(c.Delta) || indeg.Total() == 0 {
		return graph.Vertex(r.IntRange(1, b.NumVertices()))
	}
	return graph.Vertex(indeg.Sample(r))
}

// TestEndpointMatchesFenwickDistribution is the sampler-swap safety
// net for the Cooper–Frieze process: the O(1) endpoint-array generator
// and the O(N log N) Fenwick reference must draw total-degree
// distributions that a two-sample chi-square test cannot tell apart.
func TestEndpointMatchesFenwickDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution comparison is not short")
	}
	const (
		n    = 300
		reps = 200
		bins = 10 // degrees 0..8 and >= 9
	)
	cfg := defaultConfig(n)
	cfg.Alpha = 0.7
	histEndpoint := make([]int, bins)
	histFenwick := make([]int, bins)
	for rep := 0; rep < reps; rep++ {
		re, err := cfg.Generate(rng.New(rng.DeriveSeed(21, uint64(rep))))
		if err != nil {
			t.Fatal(err)
		}
		rf, err := cfg.GenerateFenwick(rng.New(rng.DeriveSeed(22, uint64(rep))))
		if err != nil {
			t.Fatal(err)
		}
		for v := graph.Vertex(1); int(v) <= n; v++ {
			histEndpoint[min(re.Graph.Degree(v), bins-1)]++
			histFenwick[min(rf.Graph.Degree(v), bins-1)]++
		}
	}
	res, err := stats.ChiSquareTwoSample(histEndpoint, histFenwick)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 1e-3 {
		t.Errorf("endpoint vs Fenwick degree distributions differ: chi2=%.2f df=%d p-value=%g\nendpoint: %v\nfenwick:  %v",
			res.Statistic, res.DF, res.PValue, histEndpoint, histFenwick)
	}
}
