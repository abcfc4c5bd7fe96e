// Equality of the frontier-parallel passes with their serial
// counterparts on every registered model family. This lives in an
// external test package so it can import internal/model (which itself
// imports internal/graph) without a cycle.
package graph_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/model"
	"scalefree/internal/rng"
)

// familyParams builds a small- and a medium-sized parameter set for
// each registered family, covering connected trees (mori m=1),
// multi-edge substrates (cf), and genuinely disconnected graphs
// (config without giant extraction shatters into many components).
func familyParams(t *testing.T) map[string][]string {
	t.Helper()
	params := map[string][]string{
		"mori":      {"n=200,m=1,p=0.5", "n=3000,m=2,p=0.75"},
		"cf":        {"n=200,alpha=0.8", "n=3000,alpha=0.6,loops=false"},
		"ba":        {"n=200,m=1", "n=3000,m=3"},
		"config":    {"n=200,k=2.3", "n=3000,k=2.1,simple=true"},
		"fitness":   {"n=200,m=1,eta0=0.3", "n=3000,m=2,eta0=0.1"},
		"geopa":     {"n=200,m=1,r=0.4", "n=3000,m=2,r=0.25"},
		"kleinberg": {"l=10,r=2,q=1", "l=48,r=2,q=2"},
	}
	for _, f := range model.Families() {
		if _, ok := params[f.Name]; !ok {
			t.Fatalf("registered family %q has no parameter sets in this test; add one", f.Name)
		}
	}
	return params
}

// TestParallelPassesMatchSerialOnAllModels is the registry-wide sweep
// the giant-graph mode rests on: for every model family, at two sizes,
// for worker counts 1, 2, and NumCPU, the parallel BFS dist array and
// the parallel component labels are entry-for-entry identical to the
// serial passes.
func TestParallelPassesMatchSerialOnAllModels(t *testing.T) {
	workerCounts := []int{1, 2, runtime.NumCPU()}
	var s graph.BFSScratch
	for name, paramSets := range familyParams(t) {
		for _, params := range paramSets {
			t.Run(fmt.Sprintf("%s/%s", name, params), func(t *testing.T) {
				m, err := model.New(name, params)
				if err != nil {
					t.Fatal(err)
				}
				g, err := m.Generate(rng.New(42), nil)
				if err != nil {
					t.Fatal(err)
				}
				n := g.NumVertices()

				wantLabels, wantCount := graph.Components(g)
				dist := make([]int32, n+1)
				queue := make([]graph.Vertex, 0, n)
				sources := []graph.Vertex{1, graph.Vertex(n), graph.Vertex(n/2 + 1)}
				wantDist := make(map[graph.Vertex][]int32, len(sources))
				for _, src := range sources {
					d := make([]int32, n+1)
					graph.BFSInto(g, src, d, queue)
					wantDist[src] = d
				}

				for _, workers := range workerCounts {
					for _, src := range sources {
						graph.BFSParallelInto(g, src, dist, workers, &s)
						for v := range dist {
							if dist[v] != wantDist[src][v] {
								t.Fatalf("workers=%d src=%d: dist[%d] = %d, want %d",
									workers, src, v, dist[v], wantDist[src][v])
							}
						}
					}
					labels := make([]int32, n+1)
					count := graph.ComponentsParallelInto(g, labels, workers, &s)
					if count != wantCount {
						t.Fatalf("workers=%d: %d components, want %d", workers, count, wantCount)
					}
					for v := range wantLabels {
						if labels[v] != wantLabels[v] {
							t.Fatalf("workers=%d: label[%d] = %d, want %d",
								workers, v, labels[v], wantLabels[v])
						}
					}
				}
			})
		}
	}
}

// TestSnapshotRoundTripAllModels freezes one instance of every family
// to a snapshot file and confirms the mmap'd graph is Equal — the
// generate→freeze→measure pipeline works for the whole registry.
func TestSnapshotRoundTripAllModels(t *testing.T) {
	for name, paramSets := range familyParams(t) {
		m, err := model.New(name, paramSets[0])
		if err != nil {
			t.Fatal(err)
		}
		g, err := m.Generate(rng.New(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/" + name + ".csr"
		if err := graph.WriteSnapshotFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap, err := graph.OpenSnapshot(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !graph.Equal(g, snap.Graph()) {
			t.Errorf("%s: snapshot round trip changed the graph", name)
		}
		if err := snap.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		snap.Close()
	}
}

// TestBFSParallelSteadyStateAllocsOnMori is the zero-allocation gate
// where it is hardest to keep: a 2^18-vertex Móri graph, whose skewed
// levels let the dynamically claimed chunks hand each worker a
// different share of every level, with more workers than the two
// cores. After five warm-ups, each of 40 traversals is counted on its
// own, since testing.AllocsPerRun's integer average hides any count
// below one per run, and the last one's distances must match
// BFSInto's. Each also runs the sampled mean distance from 8 sources,
// whose bottom-up levels fan out through the same spawn path, and the
// last mean must equal the per-source reference's. AllocsPerRun also
// runs its function with GOMAXPROCS 1, where the last worker spawned
// takes nearly every chunk and the shares barely vary, so this gate
// reads the allocation count around each traversal itself, at
// GOMAXPROCS 2. The runtime allocates goroutine descriptors until its
// free lists hold enough of them, and a thread record (runtime.newm)
// whenever waking a goroutine finds no idle thread, so the warm-up
// first runs a few hundred goroutines at once and parks 8 threads.
func TestBFSParallelSteadyStateAllocsOnMori(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	m, err := model.New("mori", "n=262144,m=2,p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Generate(rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	want := make([]int32, n+1)
	queue := make([]graph.Vertex, 0, n)
	graph.BFSInto(g, 1, want, queue)
	r := rng.New(2)
	sources := make([]graph.Vertex, 8)
	for i := range sources {
		sources[i] = graph.Vertex(r.IntRange(1, n))
	}
	wantMean := graph.AverageDistanceSampledInto(g, sources, make([]int32, n+1), queue)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	stockGoroutines(512)
	stockThreads(8)
	dist := make([]int32, n+1)
	for _, workers := range []int{2, 4, 8} {
		var s graph.BFSScratch
		for i := 0; i < 5; i++ {
			graph.BFSParallelInto(g, 1, dist, workers, &s)
			graph.AverageDistanceSampledParallelInto(g, sources, dist, workers, &s)
		}
		allocating := 0
		var mean float64
		for i := 0; i < 40; i++ {
			before := mallocs()
			graph.BFSParallelInto(g, 1, dist, workers, &s)
			mean = graph.AverageDistanceSampledParallelInto(g, sources, dist, workers, &s)
			if mallocs() != before {
				allocating++
			}
		}
		if allocating > 0 {
			t.Errorf("workers=%d: %d of 40 steady-state traversals allocated, want 0", workers, allocating)
		}
		if mean != wantMean {
			t.Errorf("workers=%d: mean distance %v, want %v", workers, mean, wantMean)
		}
		for v := range dist {
			if dist[v] != want[v] {
				t.Fatalf("workers=%d: dist[%d] = %d, want %d", workers, v, dist[v], want[v])
			}
		}
	}
}

// stockGoroutines runs k goroutines at once and waits for them all to
// exit, leaving the runtime enough free goroutine descriptors that
// spawning a traversal's workers allocates none.
func stockGoroutines(k int) {
	var wg sync.WaitGroup
	release := make(chan struct{})
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	close(release)
	wg.Wait()
}

// stockThreads locks k goroutines to threads of their own and blocks
// them all at once, so that the runtime starts a thread for each, then
// releases them; the threads stay idle, and waking a traversal's
// workers finds one instead of starting (and allocating) a new one.
func stockThreads(k int) {
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	ready.Add(k)
	done.Add(k)
	for i := 0; i < k; i++ {
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			ready.Done()
			<-release
		}()
	}
	ready.Wait()
	close(release)
	done.Wait()
}

// mallocs reads the process's cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
