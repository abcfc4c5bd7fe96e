package percolation

import (
	"testing"

	"scalefree/internal/configmodel"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, n)
	b.AddVertices(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex(v+1))
	}
	b.AddEdge(graph.Vertex(n), 1)
	return b.Freeze()
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{QueryWalk: -1},
		{BroadcastProb: -0.1},
		{BroadcastProb: 1.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, c)
		}
	}
}

func TestReplicateWalkLength(t *testing.T) {
	g := ringGraph(50)
	r := rng.New(3)
	replicas := Replicate(g, r, 10, 5)
	if !replicas[10] {
		t.Fatal("origin not replicated")
	}
	if len(replicas) < 2 || len(replicas) > 6 {
		t.Fatalf("replica count %d out of [2, 6] after a 5-step walk", len(replicas))
	}
	if len(Replicate(g, r, 10, 0)) != 1 {
		t.Fatal("zero-length walk should keep only the origin")
	}
}

func TestQueryValidation(t *testing.T) {
	g := ringGraph(10)
	if _, err := Query(g, rng.New(1), nil, 0, Config{}); err == nil {
		t.Error("start 0 accepted")
	}
	if _, err := Query(g, rng.New(1), nil, 11, Config{}); err == nil {
		t.Error("start out of range accepted")
	}
	if _, err := Query(g, rng.New(1), nil, 1, Config{BroadcastProb: 2}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestQueryFullBroadcastReachesComponent(t *testing.T) {
	g := ringGraph(40)
	res, err := Query(g, rng.New(7), map[graph.Vertex]bool{25: true}, 1, Config{BroadcastProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Error("full broadcast missed the replica")
	}
	if res.Reached != 40 {
		t.Errorf("reached %d of 40 vertices at q=1", res.Reached)
	}
	// Each ring edge traversed exactly once.
	if res.Messages != 40 {
		t.Errorf("messages = %d, want 40", res.Messages)
	}
}

func TestQueryZeroBroadcastIsJustTheWalk(t *testing.T) {
	g := ringGraph(30)
	res, err := Query(g, rng.New(9), map[graph.Vertex]bool{2: true}, 1,
		Config{QueryWalk: 4, BroadcastProb: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 4 {
		t.Errorf("messages = %d, want 4 walk steps", res.Messages)
	}
	if res.Reached > 5 {
		t.Errorf("reached %d vertices without broadcast", res.Reached)
	}
}

func TestQueryHitOnStartReplica(t *testing.T) {
	g := ringGraph(10)
	res, err := Query(g, rng.New(1), map[graph.Vertex]bool{3: true}, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.Messages != 0 {
		t.Errorf("free hit on own replica: %+v", res)
	}
}

func TestQueryDeterminism(t *testing.T) {
	g := ringGraph(100)
	reps := map[graph.Vertex]bool{60: true}
	cfg := Config{QueryWalk: 10, BroadcastProb: 0.5}
	a, err := Query(g, rng.New(77), reps, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Query(g, rng.New(77), reps, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed gave %+v then %+v", a, b)
	}
}

func TestPercolationOnPowerLawGraphIsSublinear(t *testing.T) {
	// The headline property: on a power-law giant component, a modest
	// replication level plus percolated broadcast hits with high
	// probability while touching a vanishing fraction of edges.
	g, _, err := configmodel.Config{N: 8000, Exponent: 2.3}.GenerateGiant(rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	n := g.NumVertices()
	hits, totalMsgs := 0, 0
	const trials = 30
	for i := 0; i < trials; i++ {
		origin := graph.Vertex(r.IntRange(1, n))
		replicas := Replicate(g, r, origin, 80)
		start := graph.Vertex(r.IntRange(1, n))
		res, err := Query(g, r, replicas, start, Config{QueryWalk: 40, BroadcastProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit {
			hits++
		}
		totalMsgs += res.Messages
	}
	if hits < trials*6/10 {
		t.Errorf("hit rate %d/%d too low", hits, trials)
	}
	meanMsgs := float64(totalMsgs) / trials
	if meanMsgs > float64(g.NumEdges())/2 {
		t.Errorf("mean messages %.0f not sublinear in edges %d", meanMsgs, g.NumEdges())
	}
}

func BenchmarkQuery(b *testing.B) {
	g, _, err := configmodel.Config{N: 1 << 13, Exponent: 2.3}.GenerateGiant(rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	replicas := Replicate(g, r, 1, 100)
	cfg := Config{QueryWalk: 30, BroadcastProb: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(g, r, replicas, graph.Vertex(r.IntRange(1, g.NumVertices())), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
