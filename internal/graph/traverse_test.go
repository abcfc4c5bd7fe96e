package graph

import (
	"testing"

	"scalefree/internal/rng"
)

func TestBFSPath(t *testing.T) {
	g := buildPath(6)
	dist := BFS(g, 1)
	for v := 1; v <= 6; v++ {
		if got, want := dist[v], int32(v-1); got != want {
			t.Errorf("dist[%d] = %d, want %d", v, got, want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4, 1)
	b.AddVertices(4)
	b.AddEdge(1, 2)
	g := b.Freeze()
	dist := BFS(g, 1)
	if dist[2] != 1 {
		t.Errorf("dist[2] = %d, want 1", dist[2])
	}
	if dist[3] != Unreachable || dist[4] != Unreachable {
		t.Errorf("unreachable vertices got distances %d, %d", dist[3], dist[4])
	}
}

func TestBFSIgnoresDirection(t *testing.T) {
	// Edges all point towards vertex 1, but searching is undirected.
	b := NewBuilder(3, 2)
	b.AddVertices(3)
	b.AddEdge(2, 1)
	b.AddEdge(3, 2)
	g := b.Freeze()
	dist := BFS(g, 1)
	if dist[2] != 1 || dist[3] != 2 {
		t.Errorf("dist = %v, want [_, 0, 1, 2]", dist)
	}
}

func TestBFSSelfLoopAndMultiEdge(t *testing.T) {
	b := NewBuilder(2, 3)
	b.AddVertices(2)
	b.AddEdge(1, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 1)
	g := b.Freeze()
	dist := BFS(g, 1)
	if dist[1] != 0 || dist[2] != 1 {
		t.Errorf("dist = %v", dist)
	}
}

func TestBFSPanicsOnBadSource(t *testing.T) {
	g := buildPath(3)
	for _, src := range []Vertex{0, -1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BFS(src=%d) did not panic", src)
				}
			}()
			BFS(g, src)
		}()
	}
}

func TestEccentricityAndDiameterOnPath(t *testing.T) {
	g := buildPath(10)
	if got := Eccentricity(g, 1); got != 9 {
		t.Errorf("Eccentricity(end) = %d, want 9", got)
	}
	if got := Eccentricity(g, 5); got != 5 {
		t.Errorf("Eccentricity(middle) = %d, want 5", got)
	}
	if got := ExactDiameter(g); got != 9 {
		t.Errorf("ExactDiameter = %d, want 9", got)
	}
	if got := DoubleSweepLowerBound(g, 5); got != 9 {
		t.Errorf("DoubleSweepLowerBound = %d, want 9 on a path", got)
	}
}

func TestExactDiameterCycle(t *testing.T) {
	n := 8
	b := NewBuilder(n, n)
	b.AddVertices(n)
	for v := 1; v < n; v++ {
		b.AddEdge(Vertex(v), Vertex(v+1))
	}
	b.AddEdge(Vertex(n), 1)
	g := b.Freeze()
	if got := ExactDiameter(g); got != n/2 {
		t.Errorf("cycle diameter = %d, want %d", got, n/2)
	}
}

func TestDoubleSweepNeverExceedsDiameter(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		n := r.IntRange(2, 40)
		b := NewBuilder(n, 2*n)
		b.AddVertices(n)
		// Random connected graph: spanning path plus random extras.
		for v := 1; v < n; v++ {
			b.AddEdge(Vertex(v), Vertex(v+1))
		}
		extra := r.Intn(n)
		for i := 0; i < extra; i++ {
			b.AddEdge(Vertex(r.IntRange(1, n)), Vertex(r.IntRange(1, n)))
		}
		g := b.Freeze()
		diam := ExactDiameter(g)
		lb := DoubleSweepLowerBound(g, Vertex(r.IntRange(1, n)))
		if lb > diam {
			t.Fatalf("double sweep %d exceeds exact diameter %d", lb, diam)
		}
	}
}

func TestAverageDistanceSampledPath(t *testing.T) {
	g := buildPath(3)
	// From source 1: distances 1 and 2 -> mean 1.5.
	got := AverageDistanceSampled(g, []Vertex{1})
	if got != 1.5 {
		t.Errorf("AverageDistanceSampled = %v, want 1.5", got)
	}
}

func TestAverageDistancePanicsWithoutSources(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty source list")
		}
	}()
	AverageDistanceSampled(buildPath(3), nil)
}
