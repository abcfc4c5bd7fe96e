package mori

import (
	"fmt"
	"math"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

func TestGenerateTreeValidation(t *testing.T) {
	r := rng.New(1)
	cases := []struct {
		name string
		size int
		p    float64
	}{
		{"size 1", 1, 0.5},
		{"size 0", 0, 0.5},
		{"p negative", 10, -0.5},
		{"p above one", 10, 1.5},
		{"p NaN", 10, math.NaN()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := GenerateTree(r, tc.size, tc.p); err == nil {
				t.Fatalf("GenerateTree(%d, %v) succeeded, want error", tc.size, tc.p)
			}
		})
	}
}

func TestGenerateTreeDeterminism(t *testing.T) {
	a, err := GenerateTree(rng.New(99), 500, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTree(rng.New(99), 500, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 500; k++ {
		if a.Fathers[k] != b.Fathers[k] {
			t.Fatalf("same seed diverged at vertex %d", k)
		}
	}
}

func TestTreeStructureInvariants(t *testing.T) {
	for _, p := range []float64{0.25, 0.5, 1.0} {
		tree, err := GenerateTree(rng.New(7), 1000, p)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Size() != 1000 {
			t.Fatalf("Size = %d", tree.Size())
		}
		if tree.Father(2) != 1 {
			t.Errorf("p=%v: Father(2) = %d, want 1", p, tree.Father(2))
		}
		for k := graph.Vertex(3); k <= 1000; k++ {
			f := tree.Father(k)
			if f < 1 || f >= k {
				t.Fatalf("p=%v: Father(%d) = %d violates father < child", p, k, f)
			}
		}
	}
}

func TestTreeGraphIsConnectedTree(t *testing.T) {
	tree, err := GenerateTree(rng.New(13), 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Graph()
	if g.NumVertices() != 300 || g.NumEdges() != 299 {
		t.Fatalf("graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if !graph.IsConnected(g) {
		t.Fatal("Móri tree graph is disconnected")
	}
	if g.NumSelfLoops() != 0 {
		t.Fatal("tree has self-loops")
	}
	// Edge k-2 is vertex k's outgoing edge.
	for k := graph.Vertex(2); k <= 300; k++ {
		from, to := g.Endpoints(graph.EdgeID(k - 2))
		if from != k || to != tree.Father(k) {
			t.Fatalf("edge %d = (%d, %d), want (%d, %d)", k-2, from, to, k, tree.Father(k))
		}
	}
}

func TestInDegreesMatchGraph(t *testing.T) {
	tree, err := GenerateTree(rng.New(17), 200, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Graph()
	ds := tree.InDegrees()
	for v := graph.Vertex(1); v <= 200; v++ {
		if ds[v] != g.InDegree(v) {
			t.Fatalf("InDegrees[%d] = %d, graph says %d", v, ds[v], g.InDegree(v))
		}
	}
}

func TestPureUniformNeverUsed(t *testing.T) {
	// With p = 1 the uniform mass is zero, so attachment is purely
	// preferential: a vertex with indegree 0 can never receive an edge.
	// In a p=1 tree only vertex 1 has positive indegree at time 3, and
	// inductively every father must already have positive indegree.
	tree, err := GenerateTree(rng.New(23), 2000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	indeg := make([]int, 2001)
	indeg[1] = 1
	for k := 3; k <= 2000; k++ {
		u := tree.Fathers[k]
		if indeg[u] == 0 {
			t.Fatalf("p=1 attached vertex %d to indegree-0 vertex %d", k, u)
		}
		indeg[u]++
	}
}

// Merge produces the m-out Móri graph from a tree whose size is
// divisible by m, through the same mergeInto that Config.GenerateScratch
// runs: tree vertices m(i-1)+1..mi become graph vertex i and every tree
// edge is carried over, so the result has Size/m vertices and Size-1
// edges, possibly with loops and multi-edges.
func Merge(t *Tree, m int) (*graph.Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("mori: merge factor %d < 1", m)
	}
	size := t.Size()
	if size%m != 0 {
		return nil, fmt.Errorf("mori: tree size %d not divisible by merge factor %d", size, m)
	}
	return mergeInto(t, m, graph.NewBuilder(size/m, size-1), new(graph.Graph)), nil
}

func TestMergeValidation(t *testing.T) {
	tree, err := GenerateTree(rng.New(1), 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(tree, 0); err == nil {
		t.Error("merge factor 0 accepted")
	}
	if _, err := Merge(tree, 3); err == nil {
		t.Error("indivisible merge factor accepted")
	}
}

func TestMergeBlockMapping(t *testing.T) {
	// Size-6 tree merged with m=2: blocks {1,2}→1, {3,4}→2, {5,6}→3.
	tree := &Tree{P: 0.5, Fathers: []graph.Vertex{0, 0, 1, 2, 3, 1, 4}}
	g, err := Merge(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 5 {
		t.Fatalf("merged: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	// Tree edges: 2→1, 3→2, 4→3, 5→1, 6→4 map to
	// 1→1 (loop), 2→1, 2→2 (loop), 3→1, 3→2.
	wantEdges := [][2]graph.Vertex{{1, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 2}}
	for e, want := range wantEdges {
		u, v := g.Endpoints(graph.EdgeID(e))
		if u != want[0] || v != want[1] {
			t.Errorf("merged edge %d = (%d, %d), want (%d, %d)", e, u, v, want[0], want[1])
		}
	}
	if g.NumSelfLoops() != 2 {
		t.Errorf("self-loops = %d, want 2", g.NumSelfLoops())
	}
}

func TestConfigGenerate(t *testing.T) {
	g, err := Config{N: 128, M: 4, P: 0.5}.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 128 {
		t.Fatalf("vertices = %d, want 128", g.NumVertices())
	}
	if g.NumEdges() != 128*4-1 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), 128*4-1)
	}
	if !graph.IsConnected(g) {
		t.Fatal("merged Móri graph disconnected")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []Config{
		{N: 1, M: 1, P: 0.5},
		{N: 10, M: 0, P: 0.5},
		{N: 10, M: 1, P: -0.1},
		{N: 10, M: 1, P: 1.1},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("Config %+v validated", c)
		}
	}
	if err := (Config{N: 10, M: 1, P: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestEnumerateTreesCountAndValidity(t *testing.T) {
	// (size-1)!/1 assignments: size 5 → 2·3·4 = 24.
	count := 0
	err := EnumerateTrees(5, func(fathers []graph.Vertex) {
		count++
		if fathers[2] != 1 {
			t.Fatal("enumerated tree with fathers[2] != 1")
		}
		for k := 3; k <= 5; k++ {
			if fathers[k] < 1 || int(fathers[k]) >= k {
				t.Fatalf("enumerated invalid father %d for vertex %d", fathers[k], k)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 24 {
		t.Fatalf("enumerated %d trees, want 24", count)
	}
	if err := EnumerateTrees(1, func([]graph.Vertex) {}); err == nil {
		t.Error("size 1 enumeration accepted")
	}
}

func TestTreeProbSumsToOne(t *testing.T) {
	for _, p := range []float64{0.3, 0.7, 1.0} {
		for _, size := range []int{2, 3, 5, 7} {
			total := 0.0
			err := EnumerateTrees(size, func(fathers []graph.Vertex) {
				prob, err := TreeProb(fathers, p)
				if err != nil {
					t.Fatal(err)
				}
				total += prob
			})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(total-1) > 1e-9 {
				t.Errorf("size=%d p=%v: tree probabilities sum to %v", size, p, total)
			}
		}
	}
}

func TestTreeLogProbValidation(t *testing.T) {
	if _, err := TreeLogProb([]graph.Vertex{0, 0}, 0.5); err == nil {
		t.Error("short father array accepted")
	}
	if _, err := TreeLogProb([]graph.Vertex{0, 0, 2, 1}, 0.5); err == nil {
		t.Error("fathers[2] != 1 accepted")
	}
	if _, err := TreeLogProb([]graph.Vertex{0, 0, 1, 3}, 0.5); err == nil {
		t.Error("father >= child accepted")
	}
	if _, err := TreeLogProb([]graph.Vertex{0, 0, 1, 1}, -0.5); err == nil {
		t.Error("invalid p accepted")
	}
}

func TestGeneratorMatchesExactDistribution(t *testing.T) {
	// Chi-square test of empirical tree frequencies against the exact
	// enumeration probabilities for size 5, p = 0.5. This is the
	// end-to-end faithfulness test of the generator.
	const size = 5
	const p = 0.5
	const draws = 30000

	type key [size + 1]graph.Vertex
	exact := map[key]float64{}
	var order []key
	err := EnumerateTrees(size, func(fathers []graph.Vertex) {
		var k key
		copy(k[:], fathers)
		prob, err := TreeProb(fathers, p)
		if err != nil {
			t.Fatal(err)
		}
		exact[k] = prob
		order = append(order, k)
	})
	if err != nil {
		t.Fatal(err)
	}

	r := rng.New(2024)
	counts := map[key]int{}
	for i := 0; i < draws; i++ {
		tree, err := GenerateTree(r, size, p)
		if err != nil {
			t.Fatal(err)
		}
		var k key
		copy(k[:], tree.Fathers)
		counts[k]++
	}
	observed := make([]int, len(order))
	expected := make([]float64, len(order))
	for i, k := range order {
		observed[i] = counts[k]
		expected[i] = exact[k] * draws
	}
	res, err := stats.ChiSquareGoodnessOfFit(observed, expected, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 1e-4 {
		t.Fatalf("generator does not match exact tree distribution: chi²=%v df=%d p=%v",
			res.Statistic, res.DF, res.PValue)
	}
}

func TestPureUniformAttachmentExtension(t *testing.T) {
	// p = 0 is the random recursive tree: fathers are uniform over the
	// existing vertices, so the father of the last vertex is uniform on
	// [1, n-1]. Check frequencies of a few positions.
	const size = 6
	const draws = 30000
	r := rng.New(555)
	counts := make([]int, size)
	for i := 0; i < draws; i++ {
		tree, err := GenerateTree(r, size, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[tree.Father(size)]++
	}
	want := float64(draws) / float64(size-1)
	for u := 1; u < size; u++ {
		if math.Abs(float64(counts[u])-want) > 6*math.Sqrt(want) {
			t.Errorf("p=0: father %d chosen %d times, want ≈%.0f", u, counts[u], want)
		}
	}
	// TreeProb must agree: every size-4 tree has probability 1/(2·3)=1/6...
	// at p=0 each father choice is uniform, so P(T) = Π 1/(k-2+... ) = 1/2·1/3.
	total := 0.0
	err := EnumerateTrees(4, func(fathers []graph.Vertex) {
		prob, err := TreeProb(fathers, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(prob-1.0/6) > 1e-12 {
			t.Errorf("p=0 tree prob = %v, want 1/6", prob)
		}
		total += prob
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("p=0 probabilities sum to %v", total)
	}
}

func TestMaxInDegreeGrowsWithP(t *testing.T) {
	// Móri's theorem: max degree ~ t^p. At minimum, higher p must give
	// a clearly larger hub at the same size.
	maxAt := func(p float64) int {
		tree, err := GenerateTree(rng.New(5), 20000, p)
		if err != nil {
			t.Fatal(err)
		}
		best := 0
		for _, d := range tree.InDegrees() {
			if d > best {
				best = d
			}
		}
		return best
	}
	low, high := maxAt(0.25), maxAt(1.0)
	if high <= 2*low {
		t.Errorf("max indegree at p=1 (%d) not clearly larger than at p=0.25 (%d)", high, low)
	}
}

// BenchmarkGenerateTree is the sampler ablation at generator level
// (DESIGN.md §5.2): the O(n) endpoint-array production path, with and
// without scratch reuse, against the O(n log n) Fenwick reference. At
// n = 2^20 the production path must win by >= 2×; -short drops to a
// smoke size for CI.
func BenchmarkGenerateTree(b *testing.B) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	b.Run(fmt.Sprintf("endpoint/n=%d", n), func(b *testing.B) {
		r := rng.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GenerateTree(r, n, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("endpoint-scratch/n=%d", n), func(b *testing.B) {
		r := rng.New(1)
		// Warm the scratch first, so B/op is the steady state of a
		// reused scratch rather than its first growth.
		var s Scratch
		if _, err := GenerateTreeScratch(r, n, 0.5, &s); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GenerateTreeScratch(r, n, 0.5, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("fenwick/n=%d", n), func(b *testing.B) {
		r := rng.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GenerateTreeFenwick(r, n, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkConfigGenerateMerged(b *testing.B) {
	r := rng.New(1)
	cfg := Config{N: 1 << 12, M: 4, P: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Generate(r); err != nil {
			b.Fatal(err)
		}
	}
}
