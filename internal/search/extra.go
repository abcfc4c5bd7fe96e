package search

import (
	"fmt"
	"math"

	"scalefree/internal/buf"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// TwoPhase is Adamic et al.'s protocol sketch made concrete: phase one
// climbs the degree sequence (request the highest-degree visible vertex
// until the frontier stops improving on the best degree seen), phase
// two falls back to identity-greedy descent towards the target. On
// age-correlated graphs the hub neighborhood covers much of the old
// core, after which label descent probes the young periphery.
type TwoPhase struct{}

// NewTwoPhase returns the strong-model hub-then-label searcher.
func NewTwoPhase() *TwoPhase { return &TwoPhase{} }

// Name implements Algorithm.
func (*TwoPhase) Name() string { return "two-phase" }

// Knowledge implements Algorithm.
func (*TwoPhase) Knowledge() Knowledge { return Strong }

// Search implements Algorithm.
func (*TwoPhase) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewTwoPhase(), o); err != nil {
		return Result{}, err
	}
	target := int64(o.Target())

	ws := o.work()
	byDegree, byLabel := &ws.heaps[0], &ws.heaps[1]
	byDegree.reset()
	byLabel.reset()
	push := func(v graph.Vertex) {
		view, _ := o.ViewOf(v)
		byDegree.push(-int64(view.Degree)<<32+int64(v), v)
		d := int64(v) - target
		if d < 0 {
			d = -d
		}
		byLabel.push(d<<32+int64(v), v)
	}
	push(o.Start())

	bestDegree := 0
	climbing := true
	for !o.Found() && budgetLeft(o, maxRequests) {
		h := byLabel
		if climbing {
			h = byDegree
		}
		e, ok := h.pop()
		if !ok {
			break
		}
		if !o.IsVisible(e.v) {
			continue
		}
		view, _ := o.ViewOf(e.v)
		if climbing {
			if view.Degree > bestDegree {
				bestDegree = view.Degree
			} else {
				// Frontier stopped improving: the hub has been reached;
				// switch to label descent for the rest of the search.
				climbing = false
			}
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

// BiasedWalk is a degree-biased random walk in the strong model: the
// next vertex is drawn from the current neighborhood with probability
// proportional to degree^bias. bias = 0 recovers the uniform walk;
// bias > 0 hugs the hubs (the "high-degree seeking" walk analysed in
// the P2P literature); bias < 0 explores the periphery.
type BiasedWalk struct {
	bias float64
}

// NewBiasedWalk returns a degree-biased strong-model walk.
func NewBiasedWalk(bias float64) *BiasedWalk { return &BiasedWalk{bias: bias} }

// Name implements Algorithm.
func (w *BiasedWalk) Name() string { return fmt.Sprintf("biased-walk(%+.1f)", w.bias) }

// Knowledge implements Algorithm.
func (*BiasedWalk) Knowledge() Knowledge { return Strong }

// Search implements Algorithm.
func (w *BiasedWalk) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(w, o); err != nil {
		return Result{}, err
	}
	cur := o.Start()
	if _, _, err := o.RequestVertex(cur); err != nil {
		return Result{}, err
	}
	ws := o.work()
	ws.cum = ws.cum[:0]
	ws.cumAt = buf.GrowClear(ws.cumAt, o.NumVertices()+1)
	for steps := 0; !o.Found() && budgetLeft(o, maxRequests) && steps < stepCap(maxRequests); steps++ {
		view, ok := o.ViewOf(cur)
		if !ok || view.Resolved == nil {
			return Result{}, fmt.Errorf("search: biased walk standing on unrequested vertex %d", cur)
		}
		if view.Degree == 0 {
			break
		}
		next := view.Resolved[sampleIndex(r, ws.cumWeights(o, view, w.bias))]
		if _, _, err := o.RequestVertex(next); err != nil {
			return Result{}, err
		}
		cur = next
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}

// cumWeights returns the running totals of the sampling weights
// powWeight(d, bias) of view's neighbours, in slot order. A requested
// vertex's neighbourhood and its neighbours' degrees never change, so
// each vertex's totals are summed once per search, on its first visit.
//
//sf:hotpath
func (ws *workspace) cumWeights(o *Oracle, view *View, bias float64) []float64 {
	if at := int(ws.cumAt[view.ID]); at > 0 {
		return ws.cum[at-1 : at-1+view.Degree]
	}
	start := len(ws.cum)
	acc := 0.0
	for _, nb := range view.Resolved {
		acc += powWeight(o.views[nb].Degree, bias)
		ws.cum = append(ws.cum, acc)
	}
	ws.cumAt[view.ID] = int32(start) + 1
	return ws.cum[start:]
}

// powWeight computes max(d, 1)^bias, the sampling weight of a
// neighbor with degree d.
func powWeight(d int, bias float64) float64 {
	x := float64(d)
	if x < 1 {
		x = 1
	}
	if bias == 0 {
		return 1
	}
	return math.Pow(x, bias)
}

// sampleIndex draws an index with probability proportional to its
// weight, given the running totals cum of nonnegative weights summed
// left to right. It returns the first i with u < cum[i] for
// u = Float64()·total, or the last index when there is none (a zero
// or infinite total) — the index a linear scan accumulating the
// weights would return, found by binary search over the nondecreasing
// totals.
//
//sf:hotpath
func sampleIndex(r *rng.RNG, cum []float64) int {
	u := r.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// MixedGreedy is an ε-mixture of the two weak-model greedy priorities:
// with probability eps the next request goes to the degree-greedy
// choice, otherwise to the identity-greedy choice. It probes whether
// any blend of the two signals beats either alone (it does not — the
// equivalence argument kills every mixture).
type MixedGreedy struct {
	eps float64
}

// NewMixedGreedy returns the ε-mixed weak-model greedy searcher;
// eps is clamped to [0, 1].
func NewMixedGreedy(eps float64) *MixedGreedy {
	if eps < 0 {
		eps = 0
	}
	if eps > 1 {
		eps = 1
	}
	return &MixedGreedy{eps: eps}
}

// Name implements Algorithm.
func (m *MixedGreedy) Name() string { return fmt.Sprintf("mixed-greedy(%.2f)", m.eps) }

// Knowledge implements Algorithm.
func (*MixedGreedy) Knowledge() Knowledge { return Weak }

// Search implements Algorithm.
func (m *MixedGreedy) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(m, o); err != nil {
		return Result{}, err
	}
	target := int64(o.Target())

	ws := o.work()
	byDegree, byLabel := &ws.heaps[0], &ws.heaps[1]
	byDegree.reset()
	byLabel.reset()
	push := func(v graph.Vertex) {
		view, _ := o.ViewOf(v)
		byDegree.push(-int64(view.Degree)<<32+int64(v), v)
		d := int64(v) - target
		if d < 0 {
			d = -d
		}
		byLabel.push(d<<32+int64(v), v)
	}
	known := 0
	for !o.Found() && budgetLeft(o, maxRequests) {
		for ; known < len(o.Discovered()); known++ {
			push(o.Discovered()[known])
		}
		h := byLabel
		if r.Bernoulli(m.eps) {
			h = byDegree
		}
		// Pop until a vertex with an unresolved slot surfaces; push the
		// skipped, still-fresh entries back after the request.
		var e heapItem
		found := false
		for {
			var ok bool
			e, ok = h.pop()
			if !ok {
				break
			}
			view, _ := o.ViewOf(e.v)
			if view.Unresolved > 0 {
				found = true
				break
			}
		}
		if !found {
			break
		}
		view, _ := o.ViewOf(e.v)
		if _, _, err := o.RequestEdge(e.v, view.firstUnresolved()); err != nil {
			return Result{}, err
		}
		if view.Unresolved > 0 {
			h.push(e.prio, e.v)
		}
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}
