package search

import (
	"testing"

	"scalefree/internal/graph"
)

// unresolvedSlot is the linear reference for Oracle.selectUnresolved:
// the k-th (0-based) unresolved slot of a weak-model view in ascending
// order, for 0 <= k < Unresolved, or -1 when there is none, found by a
// scan from the first-unresolved cursor.
func (v *View) unresolvedSlot(k int) int {
	for slot := v.firstUnresolved(); slot < v.Degree; slot++ {
		if v.Resolved[slot] == graph.NoVertex {
			if k == 0 {
				return slot
			}
			k--
		}
	}
	return -1
}

// treeTotal sums a Fenwick tree over all its slots.
func treeTotal(t []int32) int {
	total := 0
	for i := len(t) - 1; i >= 0; i = i&(i+1) - 1 {
		total += int(t[i])
	}
	return total
}

// FuzzSelectUnresolved checks the Fenwick select against its linear
// reference. Each input gives vertex 1 a degree from 1 to 512, made of
// up to degree/2 self-loops and one edge to a leaf per remaining slot,
// with its slots shuffled by seed, then a stream of three-byte
// operations on vertex 1's weak-model view: select the k-th unresolved
// slot, resolve one slot (perhaps one already resolved), or resolve an
// edge's reverse slots through resolveReverse (both halves at once for
// a self-loop). The first select builds the view's tree. Before the
// first operation and after each one, every k < Unresolved must select
// the slot the reference returns, on the view's tree once it exists
// and on a tree built afresh, and each tree's total must equal
// Unresolved.
func FuzzSelectUnresolved(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint64(1), []byte{0, 0, 0, 1, 0, 0, 0, 0, 0})
	f.Add(uint16(63), uint8(20), uint64(2), []byte{2, 0, 5, 0, 0, 7, 2, 0, 9, 1, 0, 3, 1, 0, 3, 0, 0, 1})
	f.Add(uint16(511), uint8(100), uint64(3), []byte{0, 1, 0, 2, 0, 40, 2, 1, 200, 1, 1, 255, 0, 0, 0, 1, 0, 40, 0, 0, 99})
	f.Add(uint16(100), uint8(50), uint64(4), []byte{0, 0, 50, 2, 0, 1, 2, 0, 1, 2, 0, 77, 0, 0, 10})
	f.Fuzz(func(t *testing.T, degree uint16, loops uint8, seed uint64, ops []byte) {
		d := 1 + int(degree)%512
		nLoops := int(loops) % (d/2 + 1)
		leaves := d - 2*nLoops
		b := graph.NewBuilder(leaves+1, nLoops+leaves)
		b.AddVertices(leaves + 1)
		for i := 0; i < nLoops; i++ {
			b.AddEdge(1, 1)
		}
		for v := 2; v <= leaves+1; v++ {
			b.AddEdge(graph.Vertex(v), 1)
		}
		g := b.Freeze()
		o, err := NewOracleShuffled(g, 1, 1, Weak, seed)
		if err != nil {
			t.Fatal(err)
		}
		view := o.views[1]
		// check runs before the first operation (op -1) and after each.
		check := func(op int) {
			t.Helper()
			unresolved := 0
			for _, w := range view.Resolved {
				if w == graph.NoVertex {
					unresolved++
				}
			}
			if unresolved != view.Unresolved {
				t.Fatalf("op %d: %d slots unresolved, Unresolved = %d", op, unresolved, view.Unresolved)
			}
			fresh := *view
			fresh.tree = nil // selects on it build a tree from the flags as they stand
			probes := []*View{&fresh}
			if view.tree != nil {
				probes = append(probes, view)
			}
			for _, probe := range probes {
				for k := 0; k < view.Unresolved; k++ {
					if got, want := o.selectUnresolved(probe, k), view.unresolvedSlot(k); got != want {
						t.Fatalf("op %d (degree %d, %d loops): select(%d) = %d, reference %d", op, d, nLoops, k, got, want)
					}
				}
				if total := treeTotal(probe.tree); total != view.Unresolved {
					t.Fatalf("op %d: tree total %d, Unresolved = %d", op, total, view.Unresolved)
				}
			}
		}
		check(-1)
		for i := 0; i+2 < len(ops); i += 3 {
			arg := int(ops[i+1])<<8 | int(ops[i+2])
			switch ops[i] % 3 {
			case 0:
				if view.Unresolved > 0 {
					k := arg % view.Unresolved
					if got, want := o.selectUnresolved(view, k), view.unresolvedSlot(k); got != want {
						t.Fatalf("op %d: select(%d) = %d, reference %d", i/3, k, got, want)
					}
				}
			case 1:
				slot := arg % d
				o.resolveSlot(view, slot, g.HalfAt(1, o.physSlot(1, slot)).Other)
			case 2:
				h := g.HalfAt(1, arg%d)
				o.resolveReverse(1, h.Edge, h.Other)
			}
			check(i / 3)
		}
	})
}

// pathGraph returns the path 1-2-...-n (edges oriented k+1 -> k).
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, n-1)
	b.AddVertices(n)
	for v := 2; v <= n; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex(v-1))
	}
	return b.Freeze()
}

// starGraph returns a star with the hub as vertex 1 and n-1 leaves.
func starGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, n-1)
	b.AddVertices(n)
	for v := 2; v <= n; v++ {
		b.AddEdge(graph.Vertex(v), 1)
	}
	return b.Freeze()
}

func TestNewOracleValidation(t *testing.T) {
	g := pathGraph(5)
	cases := []struct {
		name          string
		start, target graph.Vertex
		k             Knowledge
	}{
		{"bad model", 1, 2, Knowledge(0)},
		{"start zero", 0, 2, Weak},
		{"start high", 6, 2, Weak},
		{"target zero", 1, 0, Weak},
		{"target high", 1, 6, Strong},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewOracle(g, tc.start, tc.target, tc.k); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestOracleStartEqualsTarget(t *testing.T) {
	g := pathGraph(3)
	for _, k := range []Knowledge{Weak, Strong} {
		o, err := NewOracle(g, 2, 2, k)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Found() || o.Requests() != 0 {
			t.Errorf("%v: found=%v requests=%d, want immediate success", k, o.Found(), o.Requests())
		}
		path, err := o.FoundPath()
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != 1 || path[0] != 2 {
			t.Errorf("%v: path = %v", k, path)
		}
	}
}

func TestWeakRequestEdgeProtocol(t *testing.T) {
	g := pathGraph(4)
	o, err := NewOracle(g, 2, 4, Weak)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := o.RequestEdge(3, 0); err == nil {
		t.Error("request on undiscovered vertex accepted")
	}
	if _, _, err := o.RequestEdge(2, -1); err == nil {
		t.Error("negative slot accepted")
	}
	if _, _, err := o.RequestEdge(2, 2); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, _, err := o.RequestVertex(2); err == nil {
		t.Error("RequestVertex accepted in weak model")
	}

	// Vertex 2's slots: slot 0 is its out-edge to 1, slot 1 the in-edge
	// from 3.
	v, newInfo, err := o.RequestEdge(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || !newInfo {
		t.Fatalf("RequestEdge(2,0) = (%d, %v)", v, newInfo)
	}
	if o.Requests() != 1 {
		t.Fatalf("requests = %d, want 1", o.Requests())
	}

	// Re-reading the same slot is free.
	v, newInfo, err = o.RequestEdge(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || newInfo || o.Requests() != 1 {
		t.Fatalf("re-read = (%d, %v), requests %d; want cached", v, newInfo, o.Requests())
	}

	// The answer revealed vertex 1's edge list, and the searcher can
	// identify the connecting edge: vertex 1's slot for that edge must
	// be resolved to 2.
	view, ok := o.ViewOf(1)
	if !ok {
		t.Fatal("vertex 1 not discovered")
	}
	if view.Degree != 1 || view.Resolved[0] != 2 || view.Unresolved != 0 {
		t.Fatalf("view of 1 = %+v", view)
	}
}

func TestWeakFoundAndPath(t *testing.T) {
	g := pathGraph(4)
	o, err := NewOracle(g, 1, 4, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.FoundPath(); err == nil {
		t.Error("FoundPath before found should error")
	}
	// Walk up the path: 1 -> 2 -> 3 -> 4.
	cur := graph.Vertex(1)
	for !o.Found() {
		view, _ := o.ViewOf(cur)
		slot := -1
		for s, w := range view.Resolved {
			if w == graph.NoVertex {
				slot = s
				break
			}
		}
		if slot == -1 {
			t.Fatalf("no unresolved slot at %d", cur)
		}
		next, _, err := o.RequestEdge(cur, slot)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if o.Requests() != 3 {
		t.Errorf("requests = %d, want 3", o.Requests())
	}
	path, err := o.FoundPath()
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Vertex{1, 2, 3, 4}
	if len(path) != 4 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestWeakSelfLoopResolvesBothHalves(t *testing.T) {
	b := graph.NewBuilder(2, 2)
	b.AddVertices(2)
	b.AddEdge(1, 1)
	b.AddEdge(2, 1)
	g := b.Freeze()
	o, err := NewOracle(g, 1, 2, Weak)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 1 has 3 slots: two halves of the loop plus the edge from 2.
	view, _ := o.ViewOf(1)
	if view.Degree != 3 {
		t.Fatalf("degree of 1 = %d", view.Degree)
	}
	v, _, err := o.RequestEdge(1, 0) // a loop half
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("loop request returned %d", v)
	}
	if view.Resolved[0] != 1 || view.Resolved[1] != 1 {
		t.Fatalf("loop halves not both resolved: %v", view.Resolved)
	}
	if view.Unresolved != 1 {
		t.Fatalf("unresolved = %d, want 1", view.Unresolved)
	}
	if o.Found() {
		t.Fatal("loop revealed no new vertex; target cannot be found")
	}
}

func TestWeakParallelEdgesResolveIndependently(t *testing.T) {
	b := graph.NewBuilder(2, 2)
	b.AddVertices(2)
	b.AddEdge(2, 1)
	b.AddEdge(2, 1)
	g := b.Freeze()
	o, err := NewOracle(g, 1, 2, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.RequestEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	// Vertex 2 is now discovered; exactly one of its two slots (the one
	// carrying the requested edge) must be resolved.
	view, _ := o.ViewOf(2)
	resolved := 0
	for _, w := range view.Resolved {
		if w != graph.NoVertex {
			resolved++
		}
	}
	if resolved != 1 || view.Unresolved != 1 {
		t.Fatalf("parallel edge views: %+v", view)
	}
	// Vertex 1's other slot is still unresolved.
	v1, _ := o.ViewOf(1)
	if v1.Unresolved != 1 {
		t.Fatalf("vertex 1 unresolved = %d, want 1", v1.Unresolved)
	}
}

func TestStrongProtocol(t *testing.T) {
	g := starGraph(5)
	o, err := NewOracle(g, 2, 4, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.RequestEdge(2, 0); err == nil {
		t.Error("RequestEdge accepted in strong model")
	}
	if _, _, err := o.RequestVertex(1); err == nil {
		t.Error("request on non-visible vertex accepted")
	}
	if got := o.Visible(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("initial frontier = %v", got)
	}

	// Request the start: reveals the hub.
	ns, newInfo, err := o.RequestVertex(2)
	if err != nil {
		t.Fatal(err)
	}
	if !newInfo || len(ns) != 1 || ns[0] != 1 {
		t.Fatalf("neighbors of 2 = %v (new %v)", ns, newInfo)
	}
	if o.Requests() != 1 {
		t.Fatalf("requests = %d", o.Requests())
	}
	if !o.IsVisible(1) {
		t.Fatal("hub should be visible")
	}
	// The hub's degree is known once visible.
	hub, ok := o.ViewOf(1)
	if !ok || hub.Degree != 4 {
		t.Fatalf("hub view = %+v", hub)
	}

	// Requesting the hub reveals all leaves, including the target.
	ns, _, err = o.RequestVertex(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 4 {
		t.Fatalf("hub neighbors = %v", ns)
	}
	if !o.Found() {
		t.Fatal("target visible but not found")
	}
	if o.Requests() != 2 {
		t.Fatalf("requests = %d, want 2", o.Requests())
	}
	path, err := o.FoundPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != 2 || path[1] != 1 || path[2] != 4 {
		t.Fatalf("path = %v", path)
	}

	// Re-requesting a discovered vertex is free.
	_, newInfo, err = o.RequestVertex(2)
	if err != nil {
		t.Fatal(err)
	}
	if newInfo || o.Requests() != 2 {
		t.Fatal("re-request of discovered vertex was not free")
	}
}

func TestStrongFrontierShrinks(t *testing.T) {
	g := pathGraph(5)
	o, err := NewOracle(g, 3, 5, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.RequestVertex(3); err != nil {
		t.Fatal(err)
	}
	// Frontier: 2 and 4.
	front := o.Visible()
	if len(front) != 2 {
		t.Fatalf("frontier = %v", front)
	}
	if o.IsVisible(3) {
		t.Fatal("requested vertex still visible")
	}
	if _, _, err := o.RequestVertex(4); err != nil {
		t.Fatal(err)
	}
	if !o.Found() {
		t.Fatal("target 5 should be visible after requesting 4")
	}
}

func TestViewSharedStateIsConsistent(t *testing.T) {
	g := pathGraph(3)
	o, err := NewOracle(g, 1, 3, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.ViewOf(99); ok {
		t.Error("view of unknown vertex reported ok")
	}
	if _, _, err := o.RequestEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if got := len(o.Discovered()); got != 2 {
		t.Fatalf("discovered = %d, want 2", got)
	}
}
