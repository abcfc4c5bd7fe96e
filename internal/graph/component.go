package graph

// Components labels every vertex with a connected-component id in
// [0, count) over the undirected view, returning the labels (indexed
// 1..n) and the number of components.
func Components(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n+1)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]Vertex, 0, n)
	next := int32(0)
	for s := Vertex(1); s <= Vertex(n); s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = next
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, h := range g.Incident(u) {
				if labels[h.Other] == -1 {
					labels[h.Other] = next
					queue = append(queue, h.Other)
				}
			}
		}
		next++
	}
	return labels, int(next)
}

// ComponentsParallelInto is Components with each component flood
// expanded by the frontier-parallel machinery of BFSParallelInto,
// writing labels into a caller buffer of length >= n+1 (every entry is
// overwritten) with a reusable traversal scratch; nil s falls back to
// fresh buffers. It returns the component count. Seeds are still
// scanned in increasing vertex order and labels assigned in seed
// order, so the (labels, count) output is byte-identical to serial
// Components for every worker count; only the within-flood work is
// parallel, which is where all the time goes on graphs dominated by a
// giant component.
func ComponentsParallelInto(g *Graph, labels []int32, workers int, s *BFSScratch) int {
	if s == nil {
		s = &BFSScratch{}
	}
	for i := range labels {
		labels[i] = -1
	}
	next := int32(0)
	for v := Vertex(1); v <= Vertex(g.NumVertices()); v++ {
		if labels[v] != -1 {
			continue
		}
		labels[v] = next
		s.seed(g.NumVertices(), v)
		s.flood(g, labels, workers, false, next)
		next++
	}
	return int(next)
}

// ComponentSizesFrom tallies component sizes from a Components (or
// ComponentsParallelInto) labelling of g without materializing any
// subgraph — the giant-graph substitute for LargestComponent when only
// sizes are needed. sizes[c] is the vertex count of component c.
func ComponentSizesFrom(g *Graph, labels []int32, count int) []int {
	sizes := make([]int, count)
	for v := 1; v <= g.NumVertices(); v++ {
		sizes[labels[v]]++
	}
	return sizes
}

// IsConnected reports whether the undirected view of g is connected.
// The empty graph is considered connected.
func IsConnected(g *Graph) bool {
	if g.NumVertices() == 0 {
		return true
	}
	_, count := Components(g)
	return count == 1
}

// LargestComponent extracts the induced subgraph of the largest
// connected component, relabelled with contiguous identities 1..size in
// increasing order of original identity. It returns the subgraph and
// origID, where origID[newID] is the original identity (indexed 1..size).
// Multi-edges and self-loops are preserved.
func LargestComponent(g *Graph) (sub *Graph, origID []Vertex) {
	n := g.NumVertices()
	if n == 0 {
		return (&Builder{}).Freeze(), nil
	}
	labels, count := Components(g)
	sizes := make([]int, count)
	for v := 1; v <= n; v++ {
		sizes[labels[v]]++
	}
	best := 0
	for c := 1; c < count; c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	newID := make([]Vertex, n+1)
	origID = make([]Vertex, 1, sizes[best]+1)
	b := NewBuilder(sizes[best], g.NumEdges())
	for v := Vertex(1); v <= Vertex(n); v++ {
		if labels[v] == int32(best) {
			newID[v] = b.AddVertex()
			origID = append(origID, v)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.Endpoints(EdgeID(e))
		if labels[u] == int32(best) && labels[v] == int32(best) {
			b.AddEdge(newID[u], newID[v])
		}
	}
	return b.Freeze(), origID
}
