package weights

import "scalefree/internal/rng"

// EndpointArray implements pure preferential attachment by the
// append-only endpoint-array trick: every time an edge touches a
// vertex, the vertex is appended; a uniform draw from the array is then
// a draw proportional to hit counts. It is O(1) per draw but, unlike
// Fenwick, supports only integer hit-count weights.
//
// It is the production sampler for every preferential draw in the
// repository: the Barabási–Albert model (weights are exactly total
// degrees) and — because the Móri and Cooper–Frieze generators flip
// their uniform-vs-preferential mixture coin exactly *before* drawing —
// the indegree-proportional draws of both evolving models, making graph
// generation O(n). The Fenwick tree remains as the O(log n) reference
// implementation (see the package comment and
// BenchmarkEndpointArraySample).
type EndpointArray struct {
	hits []int32
}

// Reset empties the sampler for reuse, keeping the backing array (and
// growing it when the hint asks for more), so repeated same-size
// generation allocates nothing.
func (e *EndpointArray) Reset(capHint int) {
	if cap(e.hits) < capHint {
		e.hits = make([]int32, 0, capHint)
		return
	}
	e.hits = e.hits[:0]
}

// Record appends one hit for item (so its weight increases by one).
func (e *EndpointArray) Record(item int32) {
	e.hits = append(e.hits, item)
}

// Sample draws an item with probability proportional to its hit count.
// It panics when nothing has been recorded.
func (e *EndpointArray) Sample(r *rng.RNG) int32 {
	if len(e.hits) == 0 {
		panic("weights: EndpointArray.Sample with no recorded hits")
	}
	return e.hits[r.Intn(len(e.hits))]
}

// At returns the item of the i-th recorded hit (0 <= i < Total()), so
// a caller that draws the index itself — as the Móri generator does,
// to share one draw definition with its draw-only pass — gets exactly
// what Sample returns for that index.
func (e *EndpointArray) At(i int) int32 { return e.hits[i] }

// Total returns the total number of recorded hits.
func (e *EndpointArray) Total() int { return len(e.hits) }
