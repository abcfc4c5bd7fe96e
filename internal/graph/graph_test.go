package graph

import (
	"testing"
	"testing/quick"

	"scalefree/internal/rng"
)

// buildPath returns the path 1-2-3-...-n as a frozen graph.
func buildPath(n int) *Graph {
	b := NewBuilder(n, n-1)
	b.AddVertices(n)
	for v := 1; v < n; v++ {
		b.AddEdge(Vertex(v), Vertex(v+1))
	}
	return b.Freeze()
}

func TestBuilderVertexIdentities(t *testing.T) {
	b := NewBuilder(0, 0)
	for want := Vertex(1); want <= 5; want++ {
		if got := b.AddVertex(); got != want {
			t.Fatalf("AddVertex returned %d, want %d", got, want)
		}
	}
	if b.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", b.NumVertices())
	}
}

func TestZeroValueBuilder(t *testing.T) {
	var b Builder
	v := b.AddVertex()
	if v != 1 {
		t.Fatalf("zero-value builder first vertex = %d, want 1", v)
	}
	g := b.Freeze()
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("unexpected snapshot: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestAddEdgeDegrees(t *testing.T) {
	b := NewBuilder(3, 3)
	b.AddVertices(3)
	b.AddEdge(2, 1)
	b.AddEdge(3, 1)
	b.AddEdge(3, 2)
	if got := b.InDegree(1); got != 2 {
		t.Errorf("InDegree(1) = %d, want 2", got)
	}
	if got := b.OutDegree(3); got != 2 {
		t.Errorf("OutDegree(3) = %d, want 2", got)
	}
	if got := b.Degree(2); got != 2 {
		t.Errorf("Degree(2) = %d, want 2", got)
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddVertices(2)
	cases := []struct{ u, v Vertex }{{0, 1}, {1, 0}, {3, 1}, {1, 3}, {-1, 1}}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d, %d) did not panic", tc.u, tc.v)
				}
			}()
			b.AddEdge(tc.u, tc.v)
		}()
	}
}

func TestSelfLoopCountsTwice(t *testing.T) {
	b := NewBuilder(1, 1)
	b.AddVertex()
	b.AddEdge(1, 1)
	g := b.Freeze()
	if got := g.Degree(1); got != 2 {
		t.Errorf("Degree with self-loop = %d, want 2", got)
	}
	if got := g.InDegree(1); got != 1 {
		t.Errorf("InDegree with self-loop = %d, want 1", got)
	}
	if got := g.OutDegree(1); got != 1 {
		t.Errorf("OutDegree with self-loop = %d, want 1", got)
	}
	if got := g.NumSelfLoops(); got != 1 {
		t.Errorf("NumSelfLoops = %d, want 1", got)
	}
	inc := g.Incident(1)
	if len(inc) != 2 || inc[0].Other != 1 || inc[1].Other != 1 {
		t.Errorf("self-loop incidence = %+v", inc)
	}
	if inc[0].Out == inc[1].Out {
		t.Errorf("self-loop halves should have opposite Out flags: %+v", inc)
	}
}

func TestParallelEdges(t *testing.T) {
	b := NewBuilder(2, 3)
	b.AddVertices(2)
	b.AddEdge(1, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 1)
	g := b.Freeze()
	if got := g.Degree(1); got != 3 {
		t.Errorf("Degree(1) = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	hs := g.Incident(1)
	if len(hs) != 3 {
		t.Fatalf("incident halves of 1 = %v, want 3", hs)
	}
	for _, h := range hs {
		if h.Other != 2 {
			t.Errorf("unexpected neighbor %d", h.Other)
		}
	}
}

func TestFreezeIsSnapshot(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddVertices(2)
	b.AddEdge(1, 2)
	g1 := b.Freeze()
	b.AddVertex()
	b.AddEdge(3, 1)
	g2 := b.Freeze()
	if g1.NumVertices() != 2 || g1.NumEdges() != 1 {
		t.Errorf("first snapshot mutated: %d vertices, %d edges", g1.NumVertices(), g1.NumEdges())
	}
	if g2.NumVertices() != 3 || g2.NumEdges() != 2 {
		t.Errorf("second snapshot wrong: %d vertices, %d edges", g2.NumVertices(), g2.NumEdges())
	}
}

func TestHalfAtMatchesIncident(t *testing.T) {
	g := buildPath(5)
	for v := Vertex(1); v <= 5; v++ {
		inc := g.Incident(v)
		for slot := range inc {
			if got := g.HalfAt(v, slot); got != inc[slot] {
				t.Errorf("HalfAt(%d, %d) = %+v, want %+v", v, slot, got, inc[slot])
			}
		}
	}
}

func TestEndpointsRoundTrip(t *testing.T) {
	b := NewBuilder(4, 4)
	b.AddVertices(4)
	pairs := [][2]Vertex{{2, 1}, {3, 2}, {4, 4}, {1, 4}}
	for _, p := range pairs {
		b.AddEdge(p[0], p[1])
	}
	g := b.Freeze()
	for e, p := range pairs {
		u, v := g.Endpoints(EdgeID(e))
		if u != p[0] || v != p[1] {
			t.Errorf("Endpoints(%d) = (%d, %d), want (%d, %d)", e, u, v, p[0], p[1])
		}
	}
}

func TestDegreeSumInvariant(t *testing.T) {
	// Sum of undirected degrees equals twice the edge count on random
	// multigraphs, including loops.
	check := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 1
		m := int(mRaw % 50)
		r := rng.New(seed)
		b := NewBuilder(n, m)
		b.AddVertices(n)
		for i := 0; i < m; i++ {
			b.AddEdge(Vertex(r.IntRange(1, n)), Vertex(r.IntRange(1, n)))
		}
		g := b.Freeze()
		sum := 0
		inSum, outSum := 0, 0
		for v := Vertex(1); v <= Vertex(n); v++ {
			sum += g.Degree(v)
			inSum += g.InDegree(v)
			outSum += g.OutDegree(v)
		}
		return sum == 2*m && inSum == m && outSum == m
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDegreesAndMaxDegree(t *testing.T) {
	b := NewBuilder(3, 3)
	b.AddVertices(3)
	b.AddEdge(2, 1)
	b.AddEdge(3, 1)
	b.AddEdge(1, 1)
	g := b.Freeze()
	ds := g.Degrees()
	want := []int{0, 4, 1, 1}
	for i := range want {
		if ds[i] != want[i] {
			t.Errorf("Degrees()[%d] = %d, want %d", i, ds[i], want[i])
		}
	}
	if got := g.MaxDegree(); got != 4 {
		t.Errorf("MaxDegree = %d, want 4", got)
	}
	if got := g.MaxInDegree(); got != 3 {
		t.Errorf("MaxInDegree = %d, want 3", got)
	}
	ins := g.InDegrees()
	if ins[1] != 3 || ins[2] != 0 || ins[3] != 0 {
		t.Errorf("InDegrees = %v", ins)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, 0).Freeze()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.MaxDegree() != 0 || g.MaxInDegree() != 0 {
		t.Fatal("empty graph max degrees should be 0")
	}
	if !IsConnected(g) {
		t.Fatal("empty graph should count as connected")
	}
}
