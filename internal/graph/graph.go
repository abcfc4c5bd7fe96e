// Package graph provides the graph substrate shared by every model and
// algorithm in the repository: a growable directed multigraph builder
// for the evolving random-graph models, an immutable CSR snapshot for
// searching and measurement, traversal (BFS, eccentricity, diameter),
// connected components, and edge-list serialization.
//
// Conventions, chosen to match the paper:
//
//   - Vertex identities are 1-based and range over [1, n]; 0 (NoVertex)
//     means "none". In the evolving models the identity of a vertex
//     equals its insertion time, which is exactly the age/label
//     correlation the paper's lower bounds exploit.
//   - Graphs are directed multigraphs: parallel edges and self-loops are
//     both legal, as produced by merged Móri graphs and Cooper–Frieze
//     processes. Searching always uses the underlying undirected view.
//   - The undirected degree of a vertex is its number of incident
//     half-edges, so a self-loop contributes two.
package graph

import (
	"sync"

	"scalefree/internal/buf"
)

// Vertex identifies a vertex; identities are 1-based.
type Vertex int32

// NoVertex is the zero Vertex, used as an explicit "none".
const NoVertex Vertex = 0

// EdgeID identifies an edge as an index into the edge arrays.
type EdgeID int32

// NoEdge is the EdgeID used as an explicit "none".
const NoEdge EdgeID = -1

// Half is one half-edge: an edge seen from one of its endpoints.
// A vertex's incidence list is a slice of halves; a self-loop appears
// twice (once with Out true, once with Out false), so len(incidence)
// is the undirected degree.
type Half struct {
	Edge  EdgeID
	Other Vertex // the far endpoint; equals the owner for self-loops
	Out   bool   // true when the owner is the tail (edge points away)
}

// Builder is a growable directed multigraph under construction by one
// of the evolving models. The zero value is an empty graph ready to
// use; NewBuilder pre-allocates capacity.
//
// The builder stores only the flat edge list plus per-vertex degree
// counters; per-vertex incidence is materialized once, at Freeze time,
// by a two-pass counting build (degree count → prefix sum → fill). That
// keeps AddEdge O(1) with no per-vertex slice allocations, so building
// an n-vertex, m-edge graph costs O(n + m) time and O(1) allocations
// beyond the four flat arrays.
type Builder struct {
	from, to []Vertex
	indeg    []int32 // 1-based: indeg[0] is unused padding
	outdeg   []int32
}

// NewBuilder returns a Builder with capacity hints for the final vertex
// and edge counts. Hints only affect allocation, not semantics.
func NewBuilder(vertexCap, edgeCap int) *Builder {
	b := &Builder{}
	b.Reset(vertexCap, edgeCap)
	return b
}

// Reset empties the builder for reuse, keeping (and, when the hints ask
// for more, growing) the backing arrays. A Reset builder plus
// FreezeInto makes repeated same-size graph construction allocation-
// free.
func (b *Builder) Reset(vertexCap, edgeCap int) {
	if cap(b.indeg) < vertexCap+1 {
		b.indeg = make([]int32, 1, vertexCap+1)
		b.outdeg = make([]int32, 1, vertexCap+1)
	} else {
		b.indeg = b.indeg[:1]
		b.outdeg = b.outdeg[:1]
		b.indeg[0], b.outdeg[0] = 0, 0
	}
	if cap(b.from) < edgeCap {
		b.from = make([]Vertex, 0, edgeCap)
		b.to = make([]Vertex, 0, edgeCap)
	} else {
		b.from = b.from[:0]
		b.to = b.to[:0]
	}
}

// AddVertex appends a new vertex and returns its identity, which is
// always the current vertex count plus one.
func (b *Builder) AddVertex() Vertex {
	b.ensureInit()
	b.indeg = append(b.indeg, 0)
	b.outdeg = append(b.outdeg, 0)
	return Vertex(len(b.indeg) - 1)
}

// AddVertices appends k new vertices.
func (b *Builder) AddVertices(k int) {
	for i := 0; i < k; i++ {
		b.AddVertex()
	}
}

func (b *Builder) ensureInit() {
	if len(b.indeg) == 0 {
		b.indeg = make([]int32, 1)
		b.outdeg = make([]int32, 1)
	}
}

// AddEdge appends the directed edge u -> v and returns its EdgeID.
// Both endpoints must already exist. Self-loops and parallel edges are
// legal; a self-loop adds two halves to the owner's incidence list.
func (b *Builder) AddEdge(u, v Vertex) EdgeID {
	if u <= 0 || int(u) >= len(b.indeg) || v <= 0 || int(v) >= len(b.indeg) {
		panic("graph: AddEdge endpoint out of range")
	}
	e := EdgeID(len(b.from))
	b.from = append(b.from, u)
	b.to = append(b.to, v)
	b.outdeg[u]++
	b.indeg[v]++
	return e
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int {
	if len(b.indeg) == 0 {
		return 0
	}
	return len(b.indeg) - 1
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.from) }

// InDegree returns the number of edges pointing into v.
func (b *Builder) InDegree(v Vertex) int { return int(b.indeg[v]) }

// OutDegree returns the number of edges leaving v.
func (b *Builder) OutDegree(v Vertex) int { return int(b.outdeg[v]) }

// Degree returns the undirected degree of v (self-loops count twice).
func (b *Builder) Degree(v Vertex) int { return int(b.indeg[v] + b.outdeg[v]) }

// Endpoints returns the tail and head of edge e.
func (b *Builder) Endpoints(e EdgeID) (from, to Vertex) {
	return b.from[e], b.to[e]
}

// Freeze converts the builder into an immutable CSR Graph. The builder
// remains usable afterwards; the snapshot copies all state.
func (b *Builder) Freeze() *Graph {
	return b.FreezeInto(new(Graph))
}

// FreezeInto is Freeze writing into a caller-owned Graph whose backing
// arrays are reused when large enough, so repeated same-size snapshots
// allocate nothing. The previous contents of g are overwritten; the
// returned pointer is g. The snapshot is a copy — mutating the builder
// afterwards does not affect it (the next FreezeInto does).
//
// Incidence order matches the historical per-vertex append order: each
// vertex's halves appear in edge-insertion order, with a self-loop
// contributing its Out half before its In half.
func (b *Builder) FreezeInto(g *Graph) *Graph {
	b.ensureInit()
	n := b.NumVertices()
	m := len(b.from)
	g.n = n
	g.from = buf.Grow(g.from, m)
	copy(g.from, b.from)
	g.to = buf.Grow(g.to, m)
	copy(g.to, b.to)
	g.indeg = buf.Grow(g.indeg, n+1)
	copy(g.indeg, b.indeg)
	g.outdeg = buf.Grow(g.outdeg, n+1)
	copy(g.outdeg, b.outdeg)

	// Counting build: off[v] starts as the first half slot of v
	// (prefix sums of undirected degrees) and doubles as the fill
	// cursor; a final shift restores the CSR convention off[v] =
	// start(v), off[n+1] = 2m.
	g.off = buf.Grow(g.off, n+2)
	g.off[0], g.off[1] = 0, 0
	for v := 1; v <= n; v++ {
		g.off[v+1] = g.off[v] + b.indeg[v] + b.outdeg[v]
	}
	g.halves = buf.Grow(g.halves, 2*m)
	for e := 0; e < m; e++ {
		u, v := b.from[e], b.to[e]
		g.halves[g.off[u]] = Half{Edge: EdgeID(e), Other: v, Out: true}
		g.off[u]++
		g.halves[g.off[v]] = Half{Edge: EdgeID(e), Other: u, Out: false}
		g.off[v]++
	}
	for v := n + 1; v >= 2; v-- {
		g.off[v] = g.off[v-1]
	}
	g.off[1] = 0
	return g
}

// Graph is an immutable directed multigraph in CSR layout. Build one
// with Builder.Freeze or the package constructors. All per-vertex
// queries are O(1); incidence iteration is cache-friendly.
type Graph struct {
	n        int
	from, to []Vertex
	off      []int32 // off[v]..off[v+1] indexes halves; off[0] unused
	halves   []Half
	indeg    []int32
	outdeg   []int32
}

// NumVertices returns the vertex count n; identities are 1..n.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.from) }

// Degree returns the undirected degree of v (self-loops count twice).
func (g *Graph) Degree(v Vertex) int {
	return int(g.off[v+1] - g.off[v])
}

// InDegree returns the number of edges pointing into v.
func (g *Graph) InDegree(v Vertex) int { return int(g.indeg[v]) }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v Vertex) int { return int(g.outdeg[v]) }

// Incident returns v's half-edges. The returned slice aliases internal
// storage and must not be modified.
//
// Every incidence list is in ascending EdgeID order, and a self-loop's
// Out half comes directly before its In half. Builder.FreezeInto
// produces that order and Snapshot.Validate rejects files that break
// it; the search oracle relies on it to find an edge's halves by
// binary search.
func (g *Graph) Incident(v Vertex) []Half {
	return g.halves[g.off[v]:g.off[v+1]]
}

// HalfAt returns v's incident half-edge in the given slot,
// 0 <= slot < Degree(v). Slots follow Incident's order: ascending
// EdgeID, a self-loop's Out half before its In half.
func (g *Graph) HalfAt(v Vertex, slot int) Half {
	return g.halves[int(g.off[v])+slot]
}

// Endpoints returns the tail and head of edge e.
func (g *Graph) Endpoints(e EdgeID) (from, to Vertex) {
	return g.from[e], g.to[e]
}

// AppendNeighbors appends the multiset of v's neighbors (one entry per
// half-edge, so parallel edges repeat and a self-loop contributes v
// twice) to dst and returns the extended slice.
func (g *Graph) AppendNeighbors(dst []Vertex, v Vertex) []Vertex {
	for _, h := range g.Incident(v) {
		dst = append(dst, h.Other)
	}
	return dst
}

// Degrees returns the undirected degree of every vertex, indexed 1..n
// (entry 0 is zero padding).
func (g *Graph) Degrees() []int {
	ds := make([]int, g.n+1)
	for v := Vertex(1); v <= Vertex(g.n); v++ {
		ds[v] = g.Degree(v)
	}
	return ds
}

// InDegrees returns the indegree of every vertex, indexed 1..n.
func (g *Graph) InDegrees() []int {
	ds := make([]int, g.n+1)
	for v := Vertex(1); v <= Vertex(g.n); v++ {
		ds[v] = g.InDegree(v)
	}
	return ds
}

// AppendDegrees appends the undirected degree of every vertex 1..n to
// dst (n entries, no padding slot) and returns the extended slice —
// the allocation-free counterpart of Degrees()[1:] for callers with a
// reusable buffer.
func (g *Graph) AppendDegrees(dst []int) []int {
	for v := Vertex(1); v <= Vertex(g.n); v++ {
		dst = append(dst, g.Degree(v))
	}
	return dst
}

// AppendInDegrees appends the indegree of every vertex 1..n to dst;
// see AppendDegrees.
func (g *Graph) AppendInDegrees(dst []int) []int {
	for v := Vertex(1); v <= Vertex(g.n); v++ {
		dst = append(dst, g.InDegree(v))
	}
	return dst
}

// MaxDegree returns the maximum undirected degree, or 0 for an empty
// graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := Vertex(1); v <= Vertex(g.n); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MaxInDegree returns the maximum indegree, or 0 for an empty graph.
func (g *Graph) MaxInDegree() int {
	max := 0
	for v := Vertex(1); v <= Vertex(g.n); v++ {
		if d := g.InDegree(v); d > max {
			max = d
		}
	}
	return max
}

// MaxDegreeParallel is MaxDegree with the vertex range partitioned
// over up to workers goroutines, per-worker partial maxima merged at
// the end. Identical result for every worker count.
func (g *Graph) MaxDegreeParallel(workers int) int {
	return maxOverVertices(g.n, workers, func(v Vertex) int { return g.Degree(v) })
}

// MaxInDegreeParallel is MaxInDegree partitioned like MaxDegreeParallel.
func (g *Graph) MaxInDegreeParallel(workers int) int {
	return maxOverVertices(g.n, workers, func(v Vertex) int { return g.InDegree(v) })
}

// maxOverVertices partitions 1..n into contiguous worker ranges and
// merges the per-range maxima.
func maxOverVertices(n, workers int, f func(Vertex) int) int {
	if workers <= 1 || n < 1<<14 {
		max := 0
		for v := Vertex(1); v <= Vertex(n); v++ {
			if d := f(v); d > max {
				max = d
			}
		}
		return max
	}
	partial := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := 1 + n*w/workers
		hi := n * (w + 1) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			max := 0
			for v := Vertex(lo); v <= Vertex(hi); v++ {
				if d := f(v); d > max {
					max = d
				}
			}
			partial[w] = max
		}(w, lo, hi)
	}
	wg.Wait()
	max := 0
	for _, d := range partial {
		if d > max {
			max = d
		}
	}
	return max
}

// NumSelfLoops counts edges whose endpoints coincide.
func (g *Graph) NumSelfLoops() int {
	count := 0
	for e := range g.from {
		if g.from[e] == g.to[e] {
			count++
		}
	}
	return count
}
