package search

import (
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// runOn builds an oracle for a's model and runs a on it.
func runOn(t *testing.T, a Algorithm, g *graph.Graph, start, target graph.Vertex, seed uint64, budget int) Result {
	t.Helper()
	o, err := NewOracle(g, start, target, a.Knowledge())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Search(o, rng.New(seed), budget)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	if res.Requests != o.Requests() {
		t.Fatalf("%s: result requests %d != oracle count %d", a.Name(), res.Requests, o.Requests())
	}
	if res.Found != o.Found() {
		t.Fatalf("%s: result found %v != oracle %v", a.Name(), res.Found, o.Found())
	}
	if res.Found {
		path, err := o.FoundPath()
		if err != nil {
			t.Fatalf("%s: FoundPath: %v", a.Name(), err)
		}
		assertValidPath(t, g, path, start, target)
	}
	return res
}

// assertValidPath checks that path is a genuine start→target walk in g.
func assertValidPath(t *testing.T, g *graph.Graph, path []graph.Vertex, start, target graph.Vertex) {
	t.Helper()
	if len(path) == 0 || path[0] != start || path[len(path)-1] != target {
		t.Fatalf("path %v does not link %d to %d", path, start, target)
	}
	for i := 1; i < len(path); i++ {
		adjacent := false
		for _, h := range g.Incident(path[i-1]) {
			if h.Other == path[i] {
				adjacent = true
				break
			}
		}
		if !adjacent {
			t.Fatalf("path %v has a non-edge %d-%d", path, path[i-1], path[i])
		}
	}
}

func allAlgorithms() []Algorithm {
	return append(WeakAlgorithms(), StrongAlgorithms()...)
}

func TestAllAlgorithmsFindTargetOnPath(t *testing.T) {
	g := pathGraph(12)
	for _, a := range allAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			res := runOn(t, a, g, 1, 12, 42, 0)
			if !res.Found {
				t.Fatalf("%s did not find the end of a 12-path", a.Name())
			}
			if res.Requests < 1 {
				t.Fatalf("%s found without requests", a.Name())
			}
		})
	}
}

func TestAllAlgorithmsFindTargetOnMoriGraph(t *testing.T) {
	tree, err := mori.GenerateTree(rng.New(5), 400, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Graph()
	for _, a := range allAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			res := runOn(t, a, g, 1, 400, 7, 0)
			if !res.Found {
				t.Fatalf("%s failed on a connected Móri tree with unlimited budget", a.Name())
			}
		})
	}
}

func TestBudgetExhaustion(t *testing.T) {
	g := pathGraph(100)
	for _, a := range allAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			res := runOn(t, a, g, 1, 100, 3, 5)
			if res.Found {
				t.Fatalf("%s found target 99 hops away within 5 requests", a.Name())
			}
			if res.Requests > 5 {
				t.Fatalf("%s overspent: %d requests on budget 5", a.Name(), res.Requests)
			}
		})
	}
}

func TestWrongModelPairingErrors(t *testing.T) {
	g := pathGraph(4)
	weakOracle, err := NewOracle(g, 1, 4, Weak)
	if err != nil {
		t.Fatal(err)
	}
	strongOracle, err := NewOracle(g, 1, 4, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDegreeGreedyStrong().Search(weakOracle, rng.New(1), 10); err == nil {
		t.Error("strong algorithm accepted weak oracle")
	}
	if _, err := NewRandomWalk().Search(strongOracle, rng.New(1), 10); err == nil {
		t.Error("weak algorithm accepted strong oracle")
	}
}

func TestAlgorithmDeterminism(t *testing.T) {
	tree, err := mori.GenerateTree(rng.New(11), 300, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Graph()
	for _, a := range allAlgorithms() {
		r1 := runOn(t, a, g, 1, 300, 99, 0)
		r2 := runOn(t, a, g, 1, 300, 99, 0)
		if r1 != r2 {
			t.Errorf("%s: same seed gave %+v then %+v", a.Name(), r1, r2)
		}
	}
}

func TestFloodCostEqualsEdgesOnPath(t *testing.T) {
	// Flood from one end of a path discovers the far end after exactly
	// n-1 requests (each edge revealed once).
	g := pathGraph(30)
	res := runOn(t, NewFlood(), g, 1, 30, 1, 0)
	if res.Requests != 29 {
		t.Errorf("flood requests = %d, want 29", res.Requests)
	}
}

func TestDegreeGreedyStrongOnStarIsInstant(t *testing.T) {
	// Start at a leaf: request it (1), request the hub (2) — target
	// visible. Adamic's strategy is optimal on stars.
	g := starGraph(50)
	res := runOn(t, NewDegreeGreedyStrong(), g, 2, 37, 3, 0)
	if res.Requests != 2 {
		t.Errorf("degree-greedy-strong on star took %d requests, want 2", res.Requests)
	}
}

func TestIDGreedyStrongPrefersCloseIDs(t *testing.T) {
	// Star where the target 37 is a leaf: after the hub is revealed,
	// id-greedy requests vertices by |id-37|, so it still finds it in 2
	// requests (target becomes visible with the hub's answer).
	g := starGraph(50)
	res := runOn(t, NewIDGreedyStrong(), g, 2, 37, 3, 0)
	if res.Requests != 2 {
		t.Errorf("id-greedy-strong on star took %d requests, want 2", res.Requests)
	}
}

func TestRandomWalkMakesProgressOnCycle(t *testing.T) {
	n := 20
	b := graph.NewBuilder(n, n)
	b.AddVertices(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex(v+1))
	}
	b.AddEdge(graph.Vertex(n), 1)
	g := b.Freeze()
	res := runOn(t, NewRandomWalk(), g, 1, 11, 13, 0)
	if !res.Found {
		t.Fatal("walk failed on a cycle with unlimited budget")
	}
}

func TestSelfAvoidingWalkBeatsPureWalkOnAverage(t *testing.T) {
	// Exploration bias should not be worse than the pure walk on a
	// fixed tree (averaged over seeds). This is a sanity check, not a
	// theorem, so the margin is generous.
	tree, err := mori.GenerateTree(rng.New(3), 600, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Graph()
	var pure, avoiding int
	const reps = 40
	for i := uint64(0); i < reps; i++ {
		pure += runOn(t, NewRandomWalk(), g, 1, 600, 1000+i, 0).Requests
		avoiding += runOn(t, NewSelfAvoidingWalk(), g, 1, 600, 1000+i, 0).Requests
	}
	if float64(avoiding) > 1.5*float64(pure) {
		t.Errorf("self-avoiding walk (%d) much worse than pure walk (%d)", avoiding, pure)
	}
}

// TestHeapOrdering pops a heap empty in priority order; before each
// pop, peek must return the item the pop then removes, and leave the
// heap as it was.
func TestHeapOrdering(t *testing.T) {
	var h prioHeap
	for round := 0; round < 2; round++ {
		h.reset()
		for i, x := range []int64{5, 1, 4, 1, 3, 9, 2} {
			h.push(x, graph.Vertex(i+1))
		}
		want := []int64{1, 1, 2, 3, 4, 5, 9}
		for i, w := range want {
			top, ok := h.peek()
			if !ok || top.prio != w || len(h.items) != len(want)-i {
				t.Fatalf("peek = (%+v, %v) with %d items, want prio %d with %d", top, ok, len(h.items), w, len(want)-i)
			}
			got, ok := h.pop()
			if !ok || got != top {
				t.Fatalf("pop = (%+v, %v), want the peeked %+v", got, ok, top)
			}
		}
		if _, ok := h.peek(); ok {
			t.Fatal("peek on empty heap reported ok")
		}
		if _, ok := h.pop(); ok {
			t.Fatal("pop on empty heap reported ok")
		}
		if len(h.items) != 0 {
			t.Fatalf("len = %d", len(h.items))
		}
	}
}

func TestKnowledgeString(t *testing.T) {
	if Weak.String() != "weak" || Strong.String() != "strong" {
		t.Error("Knowledge.String names wrong")
	}
	if Knowledge(9).String() == "" {
		t.Error("unknown knowledge stringer empty")
	}
}
