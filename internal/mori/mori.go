// Package mori implements the Móri model of scale-free random trees and
// its merged m-out graph variant, the first of the two graph families
// for which the paper proves the Ω(√n) non-searchability lower bound.
//
// The Móri tree G_t starts at time t = 2 with vertices 1, 2 and the
// single edge 2 → 1. At each later time t, vertex t is added with one
// outgoing edge to an older vertex u chosen with probability
// proportional to
//
//	p·d_t(u) + (1 − p),
//
// where d_t(u) is the indegree of u at time t and 0 < p ≤ 1 mixes
// preferential (p) and uniform (1 − p) attachment.
//
// As an extension beyond the paper's parameter range, p = 0 is also
// accepted: the process degenerates to pure uniform attachment (the
// random recursive tree), for which the same equivalence machinery
// applies with P(E_{a,b}) → e^{-1} — experiment E11 measures that the
// Ω(√n) non-searchability carries over, answering the paper's closing
// remark that the technique "seems broad enough to be adapted to other
// models of growing random graphs". The m-out Móri graph
// G^(m)_n is obtained by generating the tree of size n·m and merging
// each block of m consecutive vertices into one, preserving multi-edges
// and self-loops, exactly as the paper defines it.
//
// The implementation samples the mixture exactly: the total attachment
// weight splits as p·E + (1−p)·V with E the total indegree (t−2) and V
// the vertex count (t−1), so the generator flips a coin with the exact
// state-dependent probability and then draws either proportionally to
// indegree or uniformly. Because the coin is flipped *before* the
// vertex draw, the preferential draw is pure hit-count sampling and is
// served by the O(1) endpoint array (weights.EndpointArray): generation
// of an n-vertex tree costs O(n) time and O(1) allocations (amortized
// zero with a Scratch). FathersAtMost consumes the same RNG outputs
// without building the tree, for estimators that need only the
// equivalence event (package equivalence); before the event's window
// it takes them without computing the draws at all. The tests keep the
// historical O(n log n) Fenwick-tree generator as the reference the
// production sampler is validated against (chi-square equivalence), and
// BenchmarkGenerateTree times the two against each other.
package mori

import (
	"fmt"
	"math"

	"scalefree/internal/buf"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/weights"
)

// Tree is a realized Móri tree: Fathers[k] records the destination of
// vertex k's outgoing edge, for 2 <= k <= Size. Fathers[0] and
// Fathers[1] are zero padding; Fathers[2] is always 1.
type Tree struct {
	P       float64
	Fathers []graph.Vertex
}

// GenerateTree draws a Móri tree with size >= 2 vertices and mixing
// parameter 0 < p <= 1, in O(n) time via endpoint-array preferential
// sampling. It is GenerateTreeScratch on a fresh scratch, and the tree
// it returns pins none of that scratch's other buffers.
func GenerateTree(r *rng.RNG, size int, p float64) (*Tree, error) {
	t, err := GenerateTreeScratch(r, size, p, new(Scratch))
	if err != nil {
		return nil, err
	}
	tree := *t
	return &tree, nil
}

// attachDraw makes every RNG call the model spends on vertex k >= 3:
// the coin that picks preferential attachment with probability
// p(k-2) / [p(k-2) + (1-p)(k-1)] (k-2 edges and k-1 vertices exist
// before k arrives), then one uniform index. A preferential idx lies
// in [0, k-2) and indexes the endpoint array; a uniform idx lies in
// [0, k-1) and names father idx+1. generateTree and fathersAtMost both
// call it, so their draws cannot drift apart.
func attachDraw(r *rng.RNG, k int, p float64) (idx int, pref bool) {
	prefMass := p * float64(k-2)
	unifMass := (1 - p) * float64(k-1)
	pref = r.Float64()*(prefMass+unifMass) < prefMass
	n := k - 1
	if pref {
		n = k - 2
	}
	return r.Intn(n), pref
}

// generateTree fills fathers (length size+1, entries 0 and 1 zeroed)
// with a fresh draw, recording every attachment endpoint in ends. The
// endpoint array holds one entry per indegree hit, so a uniform index
// into it is exactly the indegree-proportional draw of the model.
//
//sf:hotpath
func generateTree(r *rng.RNG, size int, p float64, fathers []graph.Vertex, ends *weights.EndpointArray) {
	fathers[0], fathers[1] = 0, 0
	fathers[2] = 1
	ends.Record(1) // the initial edge 2 → 1
	for k := 3; k <= size; k++ {
		idx, pref := attachDraw(r, k, p)
		u := graph.Vertex(idx + 1)
		if pref {
			u = graph.Vertex(ends.At(idx))
		}
		fathers[k] = u
		ends.Record(int32(u))
	}
}

// FathersAtMost reports whether every vertex in (a, size] of a Móri
// tree attached to a vertex <= a, without building the tree. It
// consumes exactly the RNG outputs GenerateTree(r, size, p) consumes,
// in the same order, so for equal seeds it returns the verdict
// CheckEvent (package equivalence) gives on GenerateTree's tree and
// leaves r in the same state. It does not compute every value those
// outputs feed.
//
// While the event holds up to vertex k-1, every recorded endpoint lies
// in [1, a], so a preferential draw cannot break it; only a uniform
// draw with idx >= a (a father above a) can. For k <= a+1 no draw can:
// every father is <= k-1 <= a. So over that prefix only the stream
// position matters, and each vertex takes its two Uint64 outputs (the
// coin's and the index's) without converting them. That is exact
// unless Lemire's rejection inside Intn would draw again, so the
// prefix checks, for each vertex and either bound k-2 or k-1, whether
// it could (mayRedraw). If any could (a chance of about 2k/2^64 per
// vertex), r is restored to its state before the prefix and the whole
// tree runs through attachDraw (redraw). Vertices after the prefix
// always run through attachDraw.
func FathersAtMost(r *rng.RNG, size int, p float64, a int) (bool, error) {
	if err := validateTree(size, p); err != nil {
		return false, err
	}
	return fathersAtMost(r, size, p, a), nil
}

// fathersAtMost is FathersAtMost's pass: the coin-free prefix up to
// vertex min(a+1, size), then attachDraw for the rest, or redraw when
// a prefix draw could have been rejected.
//
//sf:hotpath
func fathersAtMost(r *rng.RNG, size int, p float64, a int) bool {
	end := min(a, size-1) + 1 // the prefix's last vertex, without a+1 overflowing
	saved := *r
	if !skipPrefix(r, end) {
		return redraw(r, saved, size, p, a)
	}
	return fathersFrom(r, end+1, size, p, a)
}

// skipPrefix advances r past vertices 3..end as attachDraw would, two
// outputs per vertex, and reports whether that was exact: false when
// some vertex's index output could make Intn draw again, whatever its
// coin chose.
//
//sf:hotpath
func skipPrefix(r *rng.RNG, end int) bool {
	for k := 3; k <= end; k++ {
		r.Uint64() // the coin
		x, n := r.Uint64(), uint64(k)
		if mayRedraw(x, n-2) || mayRedraw(x, n-1) {
			return false
		}
	}
	return true
}

// mayRedraw reports whether Lemire's bounded draw (rng.Uint64n) with
// bound n >= 1 could reject the output x and draw again. It rejects
// when x·n mod 2^64 < (2^64 - n) mod n, so a low word below n is
// necessary.
func mayRedraw(x, n uint64) bool {
	return x*n < n
}

// redraw is the exact fallback: it restores r to saved, its state
// before the prefix, and runs every vertex through attachDraw.
func redraw(r *rng.RNG, saved rng.RNG, size int, p float64, a int) bool {
	*r = saved
	return fathersFrom(r, 3, size, p, a)
}

// fathersFrom runs vertices from..size through attachDraw and reports
// whether none of them drew a uniform father above a. Its only
// data-dependent branch is Lemire's rare rejection inside Intn: the
// coin is unpredictable by design, so it selects values (the bound
// inside attachDraw, the tracked idx here) instead of steering control
// flow.
//
//sf:hotpath
func fathersFrom(r *rng.RNG, from, size int, p float64, a int) bool {
	worst := 0 // the largest uniform idx so far; its father is worst+1
	for k := max(from, 3); k <= size; k++ {
		idx, pref := attachDraw(r, k, p)
		if pref {
			idx = 0
		}
		worst = max(worst, idx)
	}
	return worst < a
}

// Size returns the number of vertices.
func (t *Tree) Size() int { return len(t.Fathers) - 1 }

// Father returns the destination of vertex k's outgoing edge
// (2 <= k <= Size).
func (t *Tree) Father(k graph.Vertex) graph.Vertex {
	return t.Fathers[k]
}

// Graph freezes the tree into a directed graph with edges k → Father(k)
// appended in insertion order k = 2..Size.
func (t *Tree) Graph() *graph.Graph {
	size := t.Size()
	b := graph.NewBuilder(size, size-1)
	b.AddVertices(size)
	for k := 2; k <= size; k++ {
		b.AddEdge(graph.Vertex(k), t.Fathers[k])
	}
	return b.Freeze()
}

// InDegreesInto replays the tree into ds, reusing its backing array
// when the capacity suffices, and returns the indegree of every vertex
// (indexed 1..Size; entry 0 is zero).
func (t *Tree) InDegreesInto(ds []int) []int {
	ds = buf.GrowClear(ds, t.Size()+1)
	for k := 2; k <= t.Size(); k++ {
		ds[t.Fathers[k]]++
	}
	return ds
}

// mergeInto produces the m-out Móri graph from a tree whose size is
// divisible by m: tree vertices m(i-1)+1..mi become graph vertex i and
// every tree edge is carried over, so the result has Size/m vertices
// and Size-1 edges, possibly with loops and multi-edges. It writes
// through a caller-owned builder and snapshot (both reused when their
// capacity suffices); the builder must be freshly Reset.
func mergeInto(t *Tree, m int, b *graph.Builder, g *graph.Graph) *graph.Graph {
	size := t.Size()
	b.AddVertices(size / m)
	for k := 2; k <= size; k++ {
		b.AddEdge(mergedID(graph.Vertex(k), m), mergedID(t.Fathers[k], m))
	}
	return b.FreezeInto(g)
}

// mergedID maps tree vertex v to its block identity under merge factor m.
func mergedID(v graph.Vertex, m int) graph.Vertex {
	return (v + graph.Vertex(m) - 1) / graph.Vertex(m)
}

// Config describes a merged Móri graph G^(m)_N.
type Config struct {
	N int     // merged graph size (number of vertices), >= 2
	M int     // merge factor m >= 1; 1 yields the plain tree
	P float64 // preferential mixing, 0 < p <= 1
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("mori: N = %d < 2", c.N)
	}
	if c.M < 1 {
		return fmt.Errorf("mori: M = %d < 1", c.M)
	}
	return validateP(c.P)
}

// String implements fmt.Stringer for bench and log labels.
func (c Config) String() string {
	return fmt.Sprintf("mori(n=%d,m=%d,p=%g)", c.N, c.M, c.P)
}

// Generate draws the merged Móri graph: a tree of size N·M merged with
// factor M. It is GenerateScratch on a fresh scratch, and the graph it
// returns pins none of that scratch's working buffers.
func (c Config) Generate(r *rng.RNG) (*graph.Graph, error) {
	g, err := c.GenerateScratch(r, new(Scratch))
	if err != nil {
		return nil, err
	}
	out := *g
	return &out, nil
}

// Scratch holds the reusable buffers of one generation worker: the
// tree's father array, the endpoint array, and the merge builder plus
// its CSR snapshot. The zero value is ready to use; after a warm-up
// generation, repeated same-size GenerateScratch calls allocate
// nothing.
type Scratch struct {
	tree    Tree
	ends    weights.EndpointArray
	builder graph.Builder
	g       graph.Graph
}

// GenerateTreeScratch is GenerateTree through s's reusable buffers:
// after a warm-up call, repeated same-size draws allocate nothing. The
// returned tree aliases s and is valid until the next use of the same
// scratch.
func GenerateTreeScratch(r *rng.RNG, size int, p float64, s *Scratch) (*Tree, error) {
	if err := validateTree(size, p); err != nil {
		return nil, err
	}
	// generateTree overwrites every entry, so plain Grow suffices.
	s.tree.Fathers = buf.Grow(s.tree.Fathers, size+1)
	s.tree.P = p
	s.ends.Reset(size - 1)
	generateTree(r, size, p, s.tree.Fathers, &s.ends)
	return &s.tree, nil
}

// GenerateScratch is Generate drawing the identical distribution (and,
// for equal seeds, the identical graph) through s's reusable buffers.
// The returned graph aliases s and is valid until the next call with
// the same scratch; callers that outlive the scratch must use Generate.
func (c Config) GenerateScratch(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	t, err := GenerateTreeScratch(r, c.N*c.M, c.P, s)
	if err != nil {
		return nil, err
	}
	s.builder.Reset(c.N, c.N*c.M-1)
	return mergeInto(t, c.M, &s.builder, &s.g), nil
}

// validateTree checks the arguments every tree draw shares.
func validateTree(size int, p float64) error {
	if size < 2 {
		return fmt.Errorf("mori: tree size %d < 2", size)
	}
	return validateP(p)
}

func validateP(p float64) error {
	// p = 0 (pure uniform attachment) is accepted as a documented
	// extension; the paper's theorems cover 0 < p <= 1.
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("mori: p = %v out of [0, 1]", p)
	}
	return nil
}

// TreeLogProb returns the exact log-probability that GenerateTree
// produces exactly the given father assignment under mixing parameter
// p. Fathers must be a valid increasing assignment (father(k) < k); the
// function replays the attachment weights step by step.
func TreeLogProb(fathers []graph.Vertex, p float64) (float64, error) {
	size := len(fathers) - 1
	if size < 2 {
		return 0, fmt.Errorf("mori: father array for size %d < 2", size)
	}
	if err := validateP(p); err != nil {
		return 0, err
	}
	if fathers[2] != 1 {
		return 0, fmt.Errorf("mori: fathers[2] = %d, must be 1", fathers[2])
	}
	indeg := make([]int, size+1)
	indeg[1] = 1
	logProb := 0.0
	for k := 3; k <= size; k++ {
		u := fathers[k]
		if u < 1 || int(u) >= k {
			return 0, fmt.Errorf("mori: fathers[%d] = %d violates father < child", k, u)
		}
		num := p*float64(indeg[u]) + (1 - p)
		den := p*float64(k-2) + (1-p)*float64(k-1)
		logProb += math.Log(num / den)
		indeg[u]++
	}
	return logProb, nil
}

// TreeProb is TreeLogProb exponentiated; it underflows for large trees,
// so use it only on small instances (enumeration tests).
func TreeProb(fathers []graph.Vertex, p float64) (float64, error) {
	lp, err := TreeLogProb(fathers, p)
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// EnumerateTrees visits every possible father assignment of a Móri tree
// with the given size, in lexicographic order. The callback receives a
// reused slice that it must not retain. The number of assignments is
// (size-1)!, so this is intended for size <= 10.
func EnumerateTrees(size int, visit func(fathers []graph.Vertex)) error {
	if size < 2 {
		return fmt.Errorf("mori: cannot enumerate trees of size %d < 2", size)
	}
	fathers := make([]graph.Vertex, size+1)
	fathers[2] = 1
	var rec func(k int)
	rec = func(k int) {
		if k > size {
			visit(fathers)
			return
		}
		for u := 1; u < k; u++ {
			fathers[k] = graph.Vertex(u)
			rec(k + 1)
		}
	}
	rec(3)
	return nil
}
