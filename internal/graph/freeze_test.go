package graph

import "testing"

// buildSample fills b (which must be freshly Reset) with a small
// multigraph exercising self-loops and parallel edges.
func buildSample(b *Builder, n int) {
	b.AddVertices(n)
	b.AddEdge(1, 1) // self-loop
	for v := 2; v <= n; v++ {
		b.AddEdge(Vertex(v), Vertex(v/2+1))
	}
	b.AddEdge(2, 3)
	b.AddEdge(2, 3) // parallel edge
}

// TestFreezeIntoMatchesFreeze pins the reuse path to the allocating
// path: same builder, same snapshot.
func TestFreezeIntoMatchesFreeze(t *testing.T) {
	b := NewBuilder(8, 12)
	buildSample(b, 8)
	want := b.Freeze()
	var g Graph
	got := b.FreezeInto(&g)
	if got != &g {
		t.Fatal("FreezeInto did not return its argument")
	}
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			want.NumVertices(), want.NumEdges(), got.NumVertices(), got.NumEdges())
	}
	for v := Vertex(1); int(v) <= want.NumVertices(); v++ {
		wi, gi := want.Incident(v), got.Incident(v)
		if len(wi) != len(gi) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(wi), len(gi))
		}
		for i := range wi {
			if wi[i] != gi[i] {
				t.Fatalf("vertex %d slot %d: %+v vs %+v", v, i, wi[i], gi[i])
			}
		}
		if want.InDegree(v) != got.InDegree(v) || want.OutDegree(v) != got.OutDegree(v) {
			t.Fatalf("vertex %d: directed degrees diverge", v)
		}
	}
}

// TestFreezeIntoReuseIsAllocFree pins the tentpole contract: a Reset
// builder plus FreezeInto rebuilds a same-size graph with zero
// allocations.
func TestFreezeIntoReuseIsAllocFree(t *testing.T) {
	const n = 256
	b := NewBuilder(n, n+2)
	var g Graph
	build := func() {
		b.Reset(n, n+2)
		buildSample(b, n)
		b.FreezeInto(&g)
	}
	build() // warm up
	for i := 0; i < 20; i++ {
		if allocs := testing.AllocsPerRun(1, build); allocs > 0 {
			t.Errorf("steady-state Reset+FreezeInto run %d allocates %v times, want 0", i, allocs)
			break
		}
	}
}

// TestBuilderResetClearsState guards against stale degrees or edges
// leaking across reuse.
func TestBuilderResetClearsState(t *testing.T) {
	b := NewBuilder(4, 4)
	b.AddVertices(4)
	b.AddEdge(1, 2)
	b.AddEdge(3, 3)
	b.Reset(4, 4)
	if b.NumVertices() != 0 || b.NumEdges() != 0 {
		t.Fatalf("after Reset: %d vertices, %d edges", b.NumVertices(), b.NumEdges())
	}
	b.AddVertices(2)
	if b.Degree(1) != 0 || b.InDegree(2) != 0 || b.OutDegree(1) != 0 {
		t.Fatal("degrees survived Reset")
	}
	b.AddEdge(1, 2)
	g := b.Freeze()
	if g.NumVertices() != 2 || g.NumEdges() != 1 || g.Degree(1) != 1 {
		t.Fatalf("rebuilt graph wrong: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}
