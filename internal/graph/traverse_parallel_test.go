package graph

import (
	"runtime"
	"testing"

	"scalefree/internal/rng"
)

// workerCounts is the sweep every parallel-equality test runs:
// serial fallback, minimal parallelism, and whatever the machine has.
func workerCounts() []int {
	counts := []int{1, 2, runtime.NumCPU()}
	if runtime.NumCPU() < 4 {
		counts = append(counts, 4, 8) // exercise workers > cores too
	}
	return counts
}

// randomMultigraph draws a directed multigraph with self-loops,
// parallel edges, and (for density < ~1) isolated vertices.
func randomMultigraph(r *rng.RNG, n, m int) *Graph {
	b := NewBuilder(n, m)
	b.AddVertices(n)
	for i := 0; i < m; i++ {
		b.AddEdge(Vertex(r.IntRange(1, n)), Vertex(r.IntRange(1, n)))
	}
	return b.Freeze()
}

func checkBFSParallelMatches(t *testing.T, g *Graph, src Vertex, workers int, s *BFSScratch) {
	t.Helper()
	n := g.NumVertices()
	want := make([]int32, n+1)
	queue := make([]Vertex, 0, n)
	BFSInto(g, src, want, queue)
	got := make([]int32, n+1)
	BFSParallelInto(g, src, got, workers, s)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("workers=%d src=%d: dist[%d] = %d, want %d", workers, src, v, got[v], want[v])
		}
	}
}

// TestBFSParallelMatchesSerial sweeps random multigraphs — connected
// and disconnected, with multi-edges and self-loops — across sizes and
// worker counts. dist must match BFSInto entry for entry.
func TestBFSParallelMatchesSerial(t *testing.T) {
	r := rng.New(13)
	var s BFSScratch
	for _, size := range []struct{ n, m int }{
		{1, 0},       // singleton, no edges
		{2, 1},       // minimal pair
		{50, 40},     // sparse: many unreachable vertices
		{500, 400},   // disconnected at scale
		{1000, 4000}, // dense enough for one giant component
		{5000, 10000},
	} {
		g := randomMultigraph(r, size.n, size.m)
		sources := []Vertex{1, Vertex(size.n)}
		if size.n > 2 {
			sources = append(sources, Vertex(r.IntRange(1, size.n)))
		}
		for _, workers := range workerCounts() {
			for _, src := range sources {
				checkBFSParallelMatches(t, g, src, workers, &s)
			}
		}
	}
}

// TestBFSParallelWideFrontier forces the fan-out path (frontier far
// above the serial cutoff in a single level): a star plus a deep
// second tier, so level 1 has ~n vertices.
func TestBFSParallelWideFrontier(t *testing.T) {
	const n = 20000
	b := NewBuilder(n, n-1)
	b.AddVertices(n)
	for v := Vertex(2); v <= n; v++ {
		b.AddEdge(1, v)
	}
	g := b.Freeze()
	var s BFSScratch
	for _, workers := range workerCounts() {
		checkBFSParallelMatches(t, g, 1, workers, &s)
		checkBFSParallelMatches(t, g, n/2, workers, &s)
	}
}

// TestBFSParallelPathGraph: the worst case for level synchronization —
// n levels of frontier size 1 — must still terminate and agree.
func TestBFSParallelPathGraph(t *testing.T) {
	g := buildPath(2000)
	var s BFSScratch
	for _, workers := range workerCounts() {
		checkBFSParallelMatches(t, g, 1, workers, &s)
		checkBFSParallelMatches(t, g, 1000, workers, &s)
	}
}

// TestBFSParallelDirections pins the direction-optimizing flood: dist
// equals BFSInto at every worker count whichever directions the levels
// took, and the levels did take both. The graph is disconnected: a
// sparse random multigraph (a giant component among small ones) beside
// a 5000-leaf star. A flood from a leaf turns bottom-up at the hub,
// whose half-edges outnumber a fourteenth of everything unexplored, and
// then scans thousands of vertices no frontier reaches. A flood in the
// random part's giant component turns bottom-up in its dense middle
// levels and back for its tail. Component labelling stays top-down.
func TestBFSParallelDirections(t *testing.T) {
	const n1, leaves = 20000, 5000
	r := rng.New(77)
	b := NewBuilder(n1+1+leaves, 24000+leaves)
	b.AddVertices(n1 + 1 + leaves)
	for i := 0; i < 24000; i++ {
		b.AddEdge(Vertex(r.IntRange(1, n1)), Vertex(r.IntRange(1, n1)))
	}
	hub := Vertex(n1 + 1)
	for v := hub + 1; v <= hub+leaves; v++ {
		b.AddEdge(v, hub)
	}
	g := b.Freeze()

	labels, count := Components(g)
	sizes := ComponentSizesFrom(g, labels, count)
	giant, small := Vertex(0), Vertex(0)
	for v := Vertex(1); v <= n1; v++ {
		switch size := sizes[labels[v]]; {
		case giant == 0 && size > n1/2:
			giant = v
		case small == 0 && size >= 3 && size < 50:
			small = v
		}
	}
	if giant == 0 || small == 0 {
		t.Fatalf("random part lacks a giant (%d) or a small component (%d)", giant, small)
	}

	for _, workers := range workerCounts() {
		for _, tc := range []struct {
			name     string
			src      Vertex
			bothWays bool
		}{
			{"star leaf", hub + 1, true},
			{"giant component", giant, true},
			{"small component", small, false},
		} {
			var s BFSScratch
			checkBFSParallelMatches(t, g, tc.src, workers, &s)
			if s.topDownLevels == 0 || tc.bothWays && s.bottomUpLevels == 0 {
				t.Errorf("workers=%d %s: %d top-down and %d bottom-up levels, want both directions",
					workers, tc.name, s.topDownLevels, s.bottomUpLevels)
			}
		}
		var s BFSScratch
		if ComponentsParallelInto(g, make([]int32, g.NumVertices()+1), workers, &s); s.bottomUpLevels != 0 {
			t.Errorf("workers=%d: component labelling ran %d bottom-up levels", workers, s.bottomUpLevels)
		}
	}
}

// TestBFSParallelNilScratchAndConvenience covers the nil-scratch path
// and the allocating wrapper.
func TestBFSParallelNilScratchAndConvenience(t *testing.T) {
	g := randomMultigraph(rng.New(4), 800, 2400)
	want := BFS(g, 3)
	BFSParallelInto(g, 3, make([]int32, g.NumVertices()+1), 4, nil)
	got := BFSParallel(g, 3, 4)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBFSParallelSourceOutOfRange(t *testing.T) {
	g := buildPath(3)
	for _, src := range []Vertex{0, -1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BFSParallelInto(src=%d) did not panic", src)
				}
			}()
			BFSParallelInto(g, src, make([]int32, 4), 2, nil)
		}()
	}
}

// TestComponentsParallelMatchesSerial: labels and count must be
// byte-identical to Components for every worker count, including on
// graphs that are nothing but tiny components.
func TestComponentsParallelMatchesSerial(t *testing.T) {
	r := rng.New(21)
	var s BFSScratch
	for _, size := range []struct{ n, m int }{
		{1, 0},
		{80, 0},      // all isolated
		{300, 150},   // shattered
		{2000, 1500}, // mixed component sizes
		{4000, 12000},
	} {
		g := randomMultigraph(r, size.n, size.m)
		wantLabels, wantCount := Components(g)
		for _, workers := range workerCounts() {
			labels := make([]int32, size.n+1)
			count := ComponentsParallelInto(g, labels, workers, &s)
			if count != wantCount {
				t.Fatalf("n=%d workers=%d: count %d, want %d", size.n, workers, count, wantCount)
			}
			for v := range wantLabels {
				if labels[v] != wantLabels[v] {
					t.Fatalf("n=%d workers=%d: label[%d] = %d, want %d", size.n, workers, v, labels[v], wantLabels[v])
				}
			}
		}
		gotLabels, gotCount := ComponentsParallel(g, 3)
		if gotCount != wantCount {
			t.Fatalf("ComponentsParallel count %d, want %d", gotCount, wantCount)
		}
		sizes := ComponentSizesFrom(g, gotLabels, gotCount)
		total := 0
		for _, c := range sizes {
			total += c
		}
		if total != size.n {
			t.Fatalf("component sizes sum to %d, want %d", total, size.n)
		}
	}
}

// TestDistancePassesParallelMatchSerial pins the derived passes the
// CLIs use: double sweep and sampled mean distance.
func TestDistancePassesParallelMatchSerial(t *testing.T) {
	g := randomMultigraph(rng.New(31), 3000, 9000)
	n := g.NumVertices()
	dist := make([]int32, n+1)
	queue := make([]Vertex, 0, n)
	sources := []Vertex{1, 17, 1500, 3000}

	wantDiam := DoubleSweepLowerBoundInto(g, sources[0], dist, queue)
	wantMean := AverageDistanceSampledInto(g, sources, dist, queue)

	var s BFSScratch
	for _, workers := range workerCounts() {
		if got := DoubleSweepLowerBoundParallelInto(g, sources[0], dist, workers, &s); got != wantDiam {
			t.Errorf("workers=%d: double sweep %d, want %d", workers, got, wantDiam)
		}
		if got := AverageDistanceSampledParallelInto(g, sources, dist, workers, &s); got != wantMean {
			t.Errorf("workers=%d: mean distance %g, want %g", workers, got, wantMean)
		}
	}
}

// TestBFSParallelSteadyStateAllocs pins the zero-allocation contract:
// after warm-up, repeated traversals of the same graph through one
// scratch allocate nothing — frontier buffers, worker records, and
// goroutine bookkeeping are all reused.
func TestBFSParallelSteadyStateAllocs(t *testing.T) {
	g := randomMultigraph(rng.New(8), 30000, 90000)
	dist := make([]int32, g.NumVertices()+1)
	var s BFSScratch
	const workers = 4
	for i := 0; i < 3; i++ {
		BFSParallelInto(g, 1, dist, workers, &s)
	}
	if avg := testing.AllocsPerRun(10, func() {
		BFSParallelInto(g, 1, dist, workers, &s)
	}); avg != 0 {
		t.Errorf("BFSParallelInto allocates %.1f per run in steady state, want 0", avg)
	}
}

// TestMaxDegreeParallelMatches: partitioned maxima equal the serial
// scans on graphs big enough to actually partition.
func TestMaxDegreeParallelMatches(t *testing.T) {
	g := randomMultigraph(rng.New(44), 40000, 120000)
	for _, workers := range workerCounts() {
		if got := g.MaxDegreeParallel(workers); got != g.MaxDegree() {
			t.Errorf("workers=%d: MaxDegreeParallel %d, want %d", workers, got, g.MaxDegree())
		}
		if got := g.MaxInDegreeParallel(workers); got != g.MaxInDegree() {
			t.Errorf("workers=%d: MaxInDegreeParallel %d, want %d", workers, got, g.MaxInDegree())
		}
	}
}

// TestAppendDegrees: the buffer-reusing variants agree with the
// allocating ones and append (not overwrite).
func TestAppendDegrees(t *testing.T) {
	g := randomMultigraph(rng.New(5), 100, 250)
	wantDeg, wantIn := g.Degrees()[1:], g.InDegrees()[1:]

	buf := make([]int, 0, g.NumVertices())
	degs := g.AppendDegrees(buf)
	if &degs[0] != &buf[:1][0] {
		t.Error("AppendDegrees did not reuse the caller's buffer")
	}
	ins := g.AppendInDegrees(nil)
	for i := range wantDeg {
		if degs[i] != wantDeg[i] {
			t.Fatalf("AppendDegrees[%d] = %d, want %d", i, degs[i], wantDeg[i])
		}
		if ins[i] != wantIn[i] {
			t.Fatalf("AppendInDegrees[%d] = %d, want %d", i, ins[i], wantIn[i])
		}
	}
	prefixed := g.AppendDegrees([]int{-7})
	if prefixed[0] != -7 || len(prefixed) != g.NumVertices()+1 {
		t.Error("AppendDegrees overwrote existing entries instead of appending")
	}
}
