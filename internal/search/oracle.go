// Package search implements the paper's two models of local knowledge —
// the weak model and the strong model — as request-counting oracles,
// together with the suite of local search algorithms measured against
// the non-searchability lower bounds.
//
// All graph access by a search algorithm is mediated by an Oracle; the
// concrete graph is never exposed, so no algorithm can cheat. Following
// the paper's § "Modeling the searching process":
//
//   - In the *weak* model the searcher knows, for every discovered
//     vertex, its identity, its degree and an opaque list of incident
//     edge slots. A request names a discovered vertex u and one of its
//     edge slots; the answer is the identity of the far endpoint v plus
//     v's own degree and edge slots (v becomes discovered).
//   - In the *strong* model a request names a vertex u adjacent to an
//     already discovered vertex (or the start vertex); the answer is
//     the list of u's neighbors together with their degrees (their
//     incident edge lists). Neighbors become *visible*: identity and
//     degree known, adjacency not yet.
//
// The performance measure is the number of requests made before the
// target's identity becomes known (discovered in the weak model,
// visible or discovered in the strong model); re-reading already
// answered requests is free, since the paper grants the searcher
// unlimited memory of past answers.
//
// Every oracle runs on a Scratch, which holds the oracle itself, its
// vertex tables, slab arenas for the per-vertex slices, and the
// algorithms' working set. NewOracleShuffledScratch reuses a worker's
// scratch, so warm searches allocate nothing; NewOracle and
// NewOracleShuffled give each oracle a fresh one, through the same
// code.
package search

import (
	"errors"
	"fmt"
	"math/bits"

	"scalefree/internal/buf"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// Knowledge selects the local-knowledge model.
type Knowledge int

// Knowledge models, per the paper.
const (
	Weak Knowledge = iota + 1
	Strong
)

// String implements fmt.Stringer.
func (k Knowledge) String() string {
	switch k {
	case Weak:
		return "weak"
	case Strong:
		return "strong"
	default:
		return fmt.Sprintf("Knowledge(%d)", int(k))
	}
}

// ErrBudgetExhausted is returned by algorithms that stop after reaching
// their request budget without finding the target.
var ErrBudgetExhausted = errors.New("search: request budget exhausted")

// View is the searcher's knowledge about one vertex.
type View struct {
	ID     graph.Vertex
	Degree int
	// Resolved[slot] holds the far endpoint of the vertex's incident
	// edge in that slot, or graph.NoVertex while unknown. In the weak
	// model slots resolve one request at a time; in the strong model a
	// vertex's slots all resolve when the vertex itself is requested.
	Resolved []graph.Vertex
	// Unresolved counts the slots still equal to NoVertex.
	Unresolved int

	// scan is a lower bound on the lowest unresolved slot: every slot
	// below it is resolved (see firstUnresolved).
	scan int
	// tree is a Fenwick tree over the slots' unresolved flags, nil until
	// the self-avoiding walk first selects at this weak-model view (see
	// Oracle.selectUnresolved): tree[i] counts the unresolved slots
	// i&(i+1) through i.
	tree []int32
}

// firstUnresolved returns the lowest unresolved slot of a weak-model
// view, or Degree when every slot is resolved. Slots only ever move
// from NoVertex to resolved, so the scan resumes where the previous
// call stopped: O(Degree) over a whole search, not per call.
//
//sf:hotpath
func (v *View) firstUnresolved() int {
	for v.scan < v.Degree && v.Resolved[v.scan] != graph.NoVertex {
		v.scan++
	}
	return v.scan
}

// selectUnresolved returns the k-th (0-based) unresolved slot of a
// weak-model view in ascending order, for 0 <= k < view.Unresolved —
// the slot a scan of the view's slots would reach. The first select at
// a view builds its Fenwick tree from the scratch's slot slab in
// O(Degree); resolveSlot keeps it current, and each select descends it
// by binary lifting in O(log Degree).
//
//sf:hotpath
func (o *Oracle) selectUnresolved(view *View, k int) int {
	t := view.tree
	if t == nil {
		t = o.allocSlots(view.Degree)
		for i, w := range view.Resolved {
			if w == graph.NoVertex {
				t[i]++
			}
			if up := i | (i + 1); up < len(t) {
				t[up] += t[i]
			}
		}
		view.tree = t
	}
	// Binary lifting: pos sums larger powers of two than step, so
	// t[pos+step-1] counts the unresolved slots pos..pos+step-1. A block
	// holding no more than k of them is skipped, k counting the
	// unresolved slots still to pass; the slot left at pos is the one.
	pos := 0
	for step := 1 << (bits.Len(uint(len(t))) - 1); step > 0; step >>= 1 {
		if next := pos + step; next <= len(t) && int(t[next-1]) <= k {
			pos = next
			k -= int(t[next-1])
		}
	}
	return pos
}

// Oracle mediates all access of a searching process to the hidden
// graph, enforcing the chosen knowledge model and counting requests.
//
// All per-vertex state is held in vertex-indexed tables (length n+1)
// rather than maps, so lookups on the request hot path are O(1) array
// reads and the tables can be cleared and reused through a Scratch.
type Oracle struct {
	g         *graph.Graph
	knowledge Knowledge
	start     graph.Vertex
	target    graph.Vertex

	requests int
	found    bool

	views []*View        // vertex-indexed; nil = unknown
	order []graph.Vertex // discovery order

	// Strong model: identity+degree known, adjacency not yet requested.
	visible      []bool // vertex-indexed
	visibleOrder []graph.Vertex

	parent []graph.Vertex // discovery tree for FoundPath; NoVertex = none

	// Slot shuffling (see NewOracleShuffled): perm maps searcher-visible
	// slots to physical incidence slots, inv is its inverse. A nil
	// shuffler means identity order; per-vertex entries fill lazily.
	shuffler *rng.RNG
	perm     [][]int32
	inv      [][]int32

	// scratch owns this oracle and supplies the slab arenas behind
	// the per-vertex slices and the algorithms' working set.
	scratch *Scratch

	tracing bool
	trace   []TraceEvent
}

// NewOracle builds an oracle over g for a search starting at start and
// looking for target. Both vertices must exist; they may coincide, in
// which case the search is immediately successful with zero requests.
// The oracle runs on a fresh Scratch of its own.
//
// NewOracle exposes each vertex's incident edges in physical (insertion)
// order. In evolving graphs that order correlates with edge age, which
// is MORE information than the paper's model grants — an algorithm
// could read vertex ages out of slot indices. Measurements must
// therefore use NewOracleShuffled; plain NewOracle is kept for tests
// and debugging, where predictable slots are convenient.
func NewOracle(g *graph.Graph, start, target graph.Vertex, k Knowledge) (*Oracle, error) {
	return newOracle(g, start, target, k, nil, new(Scratch))
}

// NewOracleShuffled is NewOracle with age-censored slot order: every
// vertex's incident edge list is presented through an independent
// random permutation derived from seed, so slot indices carry no
// information beyond what the paper's model reveals. All measurements
// in the repository use this constructor or NewOracleShuffledScratch.
func NewOracleShuffled(g *graph.Graph, start, target graph.Vertex, k Knowledge, seed uint64) (*Oracle, error) {
	return NewOracleShuffledScratch(g, start, target, k, seed, new(Scratch))
}

// NewOracleShuffledScratch is NewOracleShuffled through a reusable
// Scratch: the oracle value, its vertex tables, the shuffler, and all
// per-vertex slices come from s, so repeated same-size searches
// allocate nothing once warm. The returned oracle is s's single live
// oracle — the next construction with the same scratch invalidates it.
func NewOracleShuffledScratch(g *graph.Graph, start, target graph.Vertex, k Knowledge, seed uint64, s *Scratch) (*Oracle, error) {
	s.shuffler.Reseed(rng.DeriveSeed(seed, 0x51075107))
	return newOracle(g, start, target, k, &s.shuffler, s)
}

// newOracle validates the request and resets s's oracle for it. Every
// field is reassigned, so stale state cannot leak between searches.
func newOracle(g *graph.Graph, start, target graph.Vertex, k Knowledge, shuffler *rng.RNG, s *Scratch) (*Oracle, error) {
	if k != Weak && k != Strong {
		return nil, fmt.Errorf("search: unknown knowledge model %d", int(k))
	}
	n := graph.Vertex(g.NumVertices())
	if start < 1 || start > n {
		return nil, fmt.Errorf("search: start vertex %d out of [1, %d]", start, n)
	}
	if target < 1 || target > n {
		return nil, fmt.Errorf("search: target vertex %d out of [1, %d]", target, n)
	}
	s.viewSlab.reset()
	s.slotSlab.reset()
	s.vertexSlab.reset()
	o := &s.oracle
	o.g = g
	o.knowledge = k
	o.start = start
	o.target = target
	o.requests = 0
	o.found = false
	o.views = buf.GrowClear(o.views, int(n)+1)
	o.visible = buf.GrowClear(o.visible, int(n)+1)
	o.parent = buf.GrowClear(o.parent, int(n)+1)
	o.order = o.order[:0]
	o.visibleOrder = o.visibleOrder[:0]
	o.shuffler = shuffler
	o.perm = o.perm[:0]
	o.inv = o.inv[:0]
	if shuffler != nil {
		o.perm = buf.GrowClear(o.perm, int(n)+1)
		o.inv = buf.GrowClear(o.inv, int(n)+1)
	}
	o.scratch = s
	o.tracing = false
	o.trace = nil
	switch k {
	case Weak:
		o.discover(start, graph.NoVertex)
	case Strong:
		o.visible[start] = true
		o.visibleOrder = append(o.visibleOrder, start)
		v := o.newView()
		*v = View{ID: start, Degree: g.Degree(start)}
		o.views[start] = v
		if start == target {
			o.found = true
		}
	}
	return o, nil
}

// newView hands out one zeroed View from the scratch slab.
func (o *Oracle) newView() *View {
	return o.scratch.viewSlab.allocOne()
}

// Zero-length per-vertex slices must still be non-nil: nil means
// "not built yet" for perm entries and "adjacency not yet requested"
// for strong-model Resolved tables.
var (
	emptySlots    = make([]int32, 0)
	emptyVertices = make([]graph.Vertex, 0)
)

// allocSlots hands out a zeroed int32 slice of length n for slot
// permutations from the scratch slab.
func (o *Oracle) allocSlots(n int) []int32 {
	if n == 0 {
		return emptySlots
	}
	return o.scratch.slotSlab.alloc(n)
}

// allocVertices hands out a zeroed vertex slice of length n for
// resolved-endpoint tables from the scratch slab.
func (o *Oracle) allocVertices(n int) []graph.Vertex {
	if n == 0 {
		return emptyVertices
	}
	return o.scratch.vertexSlab.alloc(n)
}

// work returns the algorithm working set for a search through o: the
// scratch's, so warm searches allocate nothing.
func (o *Oracle) work() *workspace {
	return &o.scratch.ws
}

// ensurePerm lazily builds the visible→physical slot permutation (and
// its inverse) for v when shuffling is on. The shuffle is rng.Shuffle's
// Fisher–Yates, draw for draw, without its per-swap closure call.
//
//sf:hotpath
func (o *Oracle) ensurePerm(v graph.Vertex) {
	if o.shuffler == nil || o.perm[v] != nil {
		return
	}
	deg := o.g.Degree(v)
	p := o.allocSlots(deg)
	inv := o.allocSlots(deg)
	for i := range p {
		p[i] = int32(i)
	}
	for i := deg - 1; i > 0; i-- {
		j := o.shuffler.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	for vis, phys := range p {
		inv[phys] = int32(vis)
	}
	o.perm[v] = p
	o.inv[v] = inv
}

// physSlot translates a searcher-visible slot of v to the physical
// incidence index.
func (o *Oracle) physSlot(v graph.Vertex, vis int) int {
	if o.shuffler == nil {
		return vis
	}
	o.ensurePerm(v)
	return int(o.perm[v][vis])
}

// visSlot translates a physical incidence index of v to the slot the
// searcher sees.
func (o *Oracle) visSlot(v graph.Vertex, phys int) int {
	if o.shuffler == nil {
		return phys
	}
	o.ensurePerm(v)
	return int(o.inv[v][phys])
}

// Knowledge returns the active model.
func (o *Oracle) Knowledge() Knowledge { return o.knowledge }

// Start returns the initial vertex.
func (o *Oracle) Start() graph.Vertex { return o.start }

// Target returns the identity the searcher is looking for. (The
// searcher always knows the label it wants; the paper's identities are
// the range [1, n].)
func (o *Oracle) Target() graph.Vertex { return o.target }

// NumVertices exposes n, the size of the identity space — public
// knowledge in the paper's labelled-graph setting.
func (o *Oracle) NumVertices() int { return o.g.NumVertices() }

// Requests returns the number of requests made so far.
func (o *Oracle) Requests() int { return o.requests }

// Found reports whether the target's identity has been revealed.
func (o *Oracle) Found() bool { return o.found }

// Discovered returns the discovered vertices in discovery order. The
// slice is shared; callers must not modify it.
func (o *Oracle) Discovered() []graph.Vertex { return o.order }

// ViewOf returns the searcher's knowledge about v, if any. The
// returned view is shared state owned by the oracle; callers must
// treat it as read-only.
func (o *Oracle) ViewOf(v graph.Vertex) (*View, bool) {
	if v < 1 || int(v) >= len(o.views) {
		return nil, false
	}
	view := o.views[v]
	return view, view != nil
}

// discover adds v to the discovered set with a fresh weak-model view.
func (o *Oracle) discover(v, from graph.Vertex) {
	if o.views[v] != nil {
		return
	}
	deg := o.g.Degree(v)
	view := o.newView()
	*view = View{
		ID:         v,
		Degree:     deg,
		Resolved:   o.allocVertices(deg),
		Unresolved: deg,
	}
	o.views[v] = view
	o.order = append(o.order, v)
	if from != graph.NoVertex {
		o.parent[v] = from
	}
	if v == o.target {
		o.found = true
	}
}

// RequestEdge performs a weak-model request (u, slot): it reveals the
// far endpoint of u's incident edge in the given slot and returns its
// identity. The request is free when the slot was already resolved
// (the searcher re-reads its own knowledge); otherwise it costs one
// request. newInfo reports whether the call consumed a request.
func (o *Oracle) RequestEdge(u graph.Vertex, slot int) (v graph.Vertex, newInfo bool, err error) {
	if o.knowledge != Weak {
		return graph.NoVertex, false, fmt.Errorf("search: RequestEdge in %v model", o.knowledge)
	}
	if u < 1 || int(u) >= len(o.views) || o.views[u] == nil {
		return graph.NoVertex, false, fmt.Errorf("search: RequestEdge on undiscovered vertex %d", u)
	}
	view := o.views[u]
	if slot < 0 || slot >= view.Degree {
		return graph.NoVertex, false, fmt.Errorf("search: RequestEdge slot %d out of [0, %d) for vertex %d", slot, view.Degree, u)
	}
	if w := view.Resolved[slot]; w != graph.NoVertex {
		return w, false, nil
	}
	o.requests++
	half := o.g.HalfAt(u, o.physSlot(u, slot))
	v = half.Other
	o.resolveSlot(view, slot, v)
	o.discover(v, u)
	// The answer includes v's incident edge list; the searcher can see
	// which of v's slots carries this very edge, so resolve the
	// matching reverse slot(s).
	o.resolveReverse(v, half.Edge, u)
	o.record(TraceEvent{Kind: TraceEdgeRequest, Subject: u, Slot: slot, Revealed: v})
	return v, true, nil
}

// resolveSlot marks one slot of a view resolved and, once the view
// has a Fenwick tree, takes the slot out of it in O(log Degree).
//
//sf:hotpath
func (o *Oracle) resolveSlot(view *View, slot int, w graph.Vertex) {
	if view.Resolved[slot] != graph.NoVertex {
		return
	}
	view.Resolved[slot] = w
	view.Unresolved--
	for i := slot; i < len(view.tree); i |= i + 1 {
		view.tree[i]--
	}
}

// resolveReverse resolves, in v's view, every slot carrying the given
// edge (both halves for a self-loop). Incidence lists are in ascending
// EdgeID order (graph.Graph.Incident), so e's halves form one adjacent
// run, found by binary search in O(log deg).
//
//sf:hotpath
func (o *Oracle) resolveReverse(v graph.Vertex, e graph.EdgeID, far graph.Vertex) {
	view := o.views[v]
	if view == nil {
		return
	}
	inc := o.g.Incident(v)
	lo, hi := 0, len(inc)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if inc[mid].Edge < e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for phys := lo; phys < len(inc) && inc[phys].Edge == e; phys++ {
		o.resolveSlot(view, o.visSlot(v, phys), far)
	}
}

// Visible returns, in first-seen order, the strong-model frontier:
// vertices whose identity and degree are known but whose adjacency has
// not been requested yet. The returned slice is freshly allocated. It
// is only meaningful in the strong model.
func (o *Oracle) Visible() []graph.Vertex {
	frontier := o.visibleOrder[:0:0]
	for _, v := range o.visibleOrder {
		if o.visible[v] {
			frontier = append(frontier, v)
		}
	}
	return frontier
}

// IsVisible reports whether v is currently in the strong-model
// frontier.
func (o *Oracle) IsVisible(v graph.Vertex) bool {
	return v >= 1 && int(v) < len(o.visible) && o.visible[v]
}

// RequestVertex performs a strong-model request on a visible vertex u:
// the answer is u's neighbor multiset with degrees. u moves from
// visible to discovered; its neighbors become visible. Requesting an
// already discovered vertex is free and returns the cached answer.
func (o *Oracle) RequestVertex(u graph.Vertex) (neighbors []graph.Vertex, newInfo bool, err error) {
	if o.knowledge != Strong {
		return nil, false, fmt.Errorf("search: RequestVertex in %v model", o.knowledge)
	}
	if u >= 1 && int(u) < len(o.views) {
		if view := o.views[u]; view != nil && view.Resolved != nil {
			return view.Resolved, false, nil // already discovered: free re-read
		}
	}
	if !o.IsVisible(u) {
		return nil, false, fmt.Errorf("search: RequestVertex on vertex %d not adjacent to a discovered vertex", u)
	}
	o.requests++
	o.visible[u] = false
	view := o.views[u]
	view.Resolved = o.allocVertices(view.Degree)
	view.Unresolved = 0
	o.order = append(o.order, u)
	if u == o.target {
		o.found = true
	}
	for phys, h := range o.g.Incident(u) {
		w := h.Other
		view.Resolved[o.visSlot(u, phys)] = w
		if o.views[w] == nil {
			nv := o.newView()
			*nv = View{ID: w, Degree: o.g.Degree(w)}
			o.views[w] = nv
			o.visible[w] = true
			o.visibleOrder = append(o.visibleOrder, w)
			o.parent[w] = u
			if w == o.target {
				o.found = true
			}
		}
	}
	o.record(TraceEvent{Kind: TraceVertexRequest, Subject: u, Slot: -1, Revealed: graph.NoVertex})
	return view.Resolved, true, nil
}

// FoundPath reconstructs a start→target path from the discovery tree
// once Found is true. The path is a witness that the search process
// has genuinely located the target through revealed edges.
func (o *Oracle) FoundPath() ([]graph.Vertex, error) {
	if !o.found {
		return nil, errors.New("search: FoundPath before the target was found")
	}
	path := []graph.Vertex{o.target}
	seen := map[graph.Vertex]bool{o.target: true}
	cur := o.target
	for cur != o.start {
		p := o.parent[cur]
		if p == graph.NoVertex {
			return nil, fmt.Errorf("search: discovery tree broken at vertex %d", cur)
		}
		if seen[p] {
			return nil, fmt.Errorf("search: discovery tree cycle at vertex %d", p)
		}
		seen[p] = true
		path = append(path, p)
		cur = p
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}
