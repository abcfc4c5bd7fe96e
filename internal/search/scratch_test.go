package search

import (
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

func scratchTestGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := mori.Config{N: n, M: 2, P: 0.5}.Generate(rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// exploreWeak walks every discovered vertex's slots breadth-first until
// the target is found or knowledge is exhausted, returning the request
// count. It touches every oracle path of the weak model.
func exploreWeak(t testing.TB, o *Oracle) int {
	t.Helper()
	for i := 0; i < len(o.Discovered()); i++ {
		u := o.Discovered()[i]
		view, ok := o.ViewOf(u)
		if !ok {
			t.Fatal("discovered vertex without view")
		}
		for slot := 0; slot < view.Degree; slot++ {
			if _, _, err := o.RequestEdge(u, slot); err != nil {
				t.Fatal(err)
			}
			if o.Found() {
				return o.Requests()
			}
		}
	}
	return o.Requests()
}

// exploreStrong expands the visible frontier in discovery order.
func exploreStrong(t testing.TB, o *Oracle) int {
	t.Helper()
	for !o.Found() {
		frontier := o.Visible()
		if len(frontier) == 0 {
			break
		}
		for _, u := range frontier {
			if _, _, err := o.RequestVertex(u); err != nil {
				t.Fatal(err)
			}
			if o.Found() {
				break
			}
		}
	}
	return o.Requests()
}

// TestOracleScratchMatchesFresh pins the scratch-backed oracle to the
// allocating one: identical requests, discovery order, and outcome for
// both knowledge models, across repeated reuse of one scratch.
func TestOracleScratchMatchesFresh(t *testing.T) {
	g := scratchTestGraph(t, 120, 5)
	target := graph.Vertex(g.NumVertices())
	var s Scratch
	for _, k := range []Knowledge{Weak, Strong} {
		for seed := uint64(1); seed <= 4; seed++ {
			fresh, err := NewOracleShuffled(g, 1, target, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := NewOracleShuffledScratch(g, 1, target, k, seed, &s)
			if err != nil {
				t.Fatal(err)
			}
			var wantReq, gotReq int
			if k == Weak {
				wantReq, gotReq = exploreWeak(t, fresh), exploreWeak(t, reused)
			} else {
				wantReq, gotReq = exploreStrong(t, fresh), exploreStrong(t, reused)
			}
			if wantReq != gotReq || fresh.Found() != reused.Found() {
				t.Fatalf("%v seed %d: fresh (req=%d found=%v) vs scratch (req=%d found=%v)",
					k, seed, wantReq, fresh.Found(), gotReq, reused.Found())
			}
			wd, gd := fresh.Discovered(), reused.Discovered()
			if len(wd) != len(gd) {
				t.Fatalf("%v seed %d: discovery order lengths %d vs %d", k, seed, len(wd), len(gd))
			}
			for i := range wd {
				if wd[i] != gd[i] {
					t.Fatalf("%v seed %d: discovery order diverges at %d", k, seed, i)
				}
			}
		}
	}
}

// TestOracleScratchAllocFree pins the steady state: after warm-up
// searches over a fixed-size graph, a full weak-model exploration
// through a scratch-backed oracle allocates nothing, and neither does
// a budgeted search by any registered algorithm — greedy heaps,
// RandomEdge's slot pool and BiasedWalk's weight totals included.
func TestOracleScratchAllocFree(t *testing.T) {
	g := scratchTestGraph(t, 200, 7)
	target := graph.Vertex(g.NumVertices())
	var s Scratch
	steady := func(t *testing.T, what string, run func()) {
		t.Helper()
		// Warm-up rounds let the slab arenas converge on their capacity.
		for i := 0; i < 5; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
			t.Errorf("steady-state scratch-backed %s allocates %v times per run, want 0", what, allocs)
		}
	}
	steady(t, "weak exploration", func() {
		o, err := NewOracleShuffledScratch(g, 1, target, Weak, 3, &s)
		if err != nil {
			t.Fatal(err)
		}
		exploreWeak(t, o)
	})
	walk := rng.New(0)
	for _, a := range allAlgorithms() {
		t.Run(a.Name(), func(t *testing.T) {
			steady(t, a.Name(), func() {
				o, err := NewOracleShuffledScratch(g, 1, target, a.Knowledge(), 3, &s)
				if err != nil {
					t.Fatal(err)
				}
				walk.Reseed(11)
				if _, err := a.Search(o, walk, 400); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
