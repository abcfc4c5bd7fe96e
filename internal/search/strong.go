package search

import (
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// DegreeGreedyStrong is Adamic et al.'s high-degree search: at every
// step it requests the highest-degree vertex of the visible frontier
// (degrees of frontier vertices are known in the strong model). On
// power-law graphs with exponent 2 < k < 3 its expected cost scales as
// O(n^(2(1-2/k))), versus O(n^(3(1-2/k))) for the random walk —
// experiment E8 reproduces that separation.
type DegreeGreedyStrong struct{}

// NewDegreeGreedyStrong returns the strong-model high-degree searcher.
func NewDegreeGreedyStrong() *DegreeGreedyStrong { return &DegreeGreedyStrong{} }

// Name implements Algorithm.
func (*DegreeGreedyStrong) Name() string { return "degree-greedy-strong" }

// Knowledge implements Algorithm.
func (*DegreeGreedyStrong) Knowledge() Knowledge { return Strong }

// Search implements Algorithm.
func (*DegreeGreedyStrong) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewDegreeGreedyStrong(), o); err != nil {
		return Result{}, err
	}
	return greedyStrong(o, maxRequests, func(v graph.Vertex, deg int) int64 {
		return -int64(deg)<<32 + int64(v)
	})
}

// IDGreedyStrong requests the visible vertex whose identity is closest
// to the target's — greedy routing on labels, the strong-model
// strategy that the paper's equivalence argument defeats.
type IDGreedyStrong struct{}

// NewIDGreedyStrong returns the strong-model identity-greedy searcher.
func NewIDGreedyStrong() *IDGreedyStrong { return &IDGreedyStrong{} }

// Name implements Algorithm.
func (*IDGreedyStrong) Name() string { return "id-greedy-strong" }

// Knowledge implements Algorithm.
func (*IDGreedyStrong) Knowledge() Knowledge { return Strong }

// Search implements Algorithm.
func (*IDGreedyStrong) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewIDGreedyStrong(), o); err != nil {
		return Result{}, err
	}
	target := int64(o.Target())
	return greedyStrong(o, maxRequests, func(v graph.Vertex, deg int) int64 {
		d := int64(v) - target
		if d < 0 {
			d = -d
		}
		return d<<32 + int64(v)
	})
}

// greedyStrong repeatedly requests the visible vertex minimizing
// priority, with lazy invalidation of frontier entries that were
// requested meanwhile.
func greedyStrong(o *Oracle, maxRequests int, priority func(v graph.Vertex, deg int) int64) (Result, error) {
	h := &o.work().heaps[0]
	h.reset()
	push := func(v graph.Vertex) {
		view, _ := o.ViewOf(v)
		h.push(priority(v, view.Degree), v)
	}
	push(o.Start())
	for !o.Found() && budgetLeft(o, maxRequests) {
		e, ok := h.pop()
		if !ok {
			break // frontier empty: component exhausted
		}
		if !o.IsVisible(e.v) {
			continue // stale: already requested
		}
		neighbors, _, err := o.RequestVertex(e.v)
		if err != nil {
			return Result{}, err
		}
		for _, w := range neighbors {
			if o.IsVisible(w) {
				push(w)
			}
		}
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}

// RandomWalkStrong is the random-walk baseline in the strong model: the
// walk moves to a uniformly random neighbor of the current vertex and
// requests it (for free when it was already discovered). It is the
// baseline strategy of Adamic et al.'s analysis.
type RandomWalkStrong struct{}

// NewRandomWalkStrong returns the strong-model random walk.
func NewRandomWalkStrong() *RandomWalkStrong { return &RandomWalkStrong{} }

// Name implements Algorithm.
func (*RandomWalkStrong) Name() string { return "random-walk-strong" }

// Knowledge implements Algorithm.
func (*RandomWalkStrong) Knowledge() Knowledge { return Strong }

// Search implements Algorithm.
func (*RandomWalkStrong) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewRandomWalkStrong(), o); err != nil {
		return Result{}, err
	}
	cur := o.Start()
	if _, _, err := o.RequestVertex(cur); err != nil {
		return Result{}, err
	}
	for steps := 0; !o.Found() && budgetLeft(o, maxRequests) && steps < stepCap(maxRequests); steps++ {
		view, ok := o.ViewOf(cur)
		if !ok || view.Resolved == nil {
			return Result{}, fmt.Errorf("search: strong walk standing on unrequested vertex %d", cur)
		}
		if view.Degree == 0 {
			break
		}
		next := view.Resolved[r.Intn(view.Degree)]
		if _, _, err := o.RequestVertex(next); err != nil {
			return Result{}, err
		}
		cur = next
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}
