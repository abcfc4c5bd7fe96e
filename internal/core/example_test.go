package core_test

import (
	"fmt"
	"math"

	"scalefree/internal/core"
	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
	"scalefree/internal/search"
)

// ExampleMeasureSearch generates a Móri scale-free graph, searches for
// its youngest vertex under the weak model of local knowledge, and
// compares the measured expected cost against the paper's Ω(√n)
// lower bound.
func ExampleMeasureSearch() {
	const (
		n    = 1024
		p    = 0.5
		seed = 42
	)

	// 1. Generate one merged Móri graph (m = 2 out-edges per vertex).
	cfg := mori.Config{N: n, M: 2, P: p}
	g, err := cfg.Generate(rng.New(seed))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Móri graph: n=%d, %d edges, max degree %d\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree())

	// 2. Search for the youngest vertex n from vertex 1 through the
	// weak-model oracle. The algorithm never touches the graph
	// directly; the shuffled oracle hides edge insertion order, per
	// the paper's model.
	oracle, err := search.NewOracleShuffled(g, 1, graph.Vertex(n), search.Weak, seed)
	if err != nil {
		fmt.Println(err)
		return
	}
	algo := search.NewDegreeGreedyWeak()
	res, err := algo.Search(oracle, rng.New(seed+1), 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	path, err := oracle.FoundPath()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s found vertex %d after %d requests (witness path length %d)\n",
		algo.Name(), n, res.Requests, len(path)-1)

	// 3. The paper's lower bound: no weak-model algorithm beats
	// |V|·P(E)/2 expected requests.
	bound, err := core.Theorem1Bound(n, p)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Theorem 1 bound: >= %.1f expected requests (√n = %.0f)\n", bound, math.Sqrt(n))

	// 4. Replicated measurement: the expectation, not one lucky run.
	m, err := core.MeasureSearch(core.MoriGen(cfg), core.SearchSpec{
		Algorithm: algo,
		Reps:      20,
		Seed:      seed,
	}, core.NewScratch())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("over %d fresh graphs: mean %.1f ± %.1f requests (median %.0f), above the bound: %v\n",
		m.Requests.N, m.Requests.Mean, m.Requests.StdErr, m.Requests.Median,
		m.Requests.Mean >= bound)
	// Output:
	// Móri graph: n=1024, 2047 edges, max degree 74
	// degree-greedy-weak found vertex 1024 after 945 requests (witness path length 3)
	// Theorem 1 bound: >= 12.4 expected requests (√n = 32)
	// over 20 fresh graphs: mean 1002.5 ± 128.3 requests (median 1084), above the bound: true
}
