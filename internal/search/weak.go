package search

import (
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// RandomWalk is the pure random walk in the weak model: at every step
// it picks a uniformly random incident edge slot of the current vertex
// and moves across it. Traversing an already-revealed slot is free;
// only first-time revelations cost a request.
type RandomWalk struct{}

// NewRandomWalk returns the weak-model pure random walk.
func NewRandomWalk() *RandomWalk { return &RandomWalk{} }

// Name implements Algorithm.
func (*RandomWalk) Name() string { return "random-walk" }

// Knowledge implements Algorithm.
func (*RandomWalk) Knowledge() Knowledge { return Weak }

// Search implements Algorithm.
func (*RandomWalk) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewRandomWalk(), o); err != nil {
		return Result{}, err
	}
	cur := o.Start()
	for steps := 0; !o.Found() && budgetLeft(o, maxRequests) && steps < stepCap(maxRequests); steps++ {
		view, ok := o.ViewOf(cur)
		if !ok {
			return Result{}, fmt.Errorf("search: random walk standing on unknown vertex %d", cur)
		}
		if view.Degree == 0 {
			break // isolated start: nowhere to go
		}
		slot := r.Intn(view.Degree)
		next, _, err := o.RequestEdge(cur, slot)
		if err != nil {
			return Result{}, err
		}
		cur = next
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}

// SelfAvoidingWalk is a random walk that prefers unrevealed slots of
// the current vertex, falling back to a uniform move when every slot
// is known. It models a slightly smarter crawler with the same local
// knowledge.
type SelfAvoidingWalk struct{}

// NewSelfAvoidingWalk returns the exploration-biased weak-model walk.
func NewSelfAvoidingWalk() *SelfAvoidingWalk { return &SelfAvoidingWalk{} }

// Name implements Algorithm.
func (*SelfAvoidingWalk) Name() string { return "self-avoiding-walk" }

// Knowledge implements Algorithm.
func (*SelfAvoidingWalk) Knowledge() Knowledge { return Weak }

// Search implements Algorithm.
func (*SelfAvoidingWalk) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewSelfAvoidingWalk(), o); err != nil {
		return Result{}, err
	}
	cur := o.Start()
	for steps := 0; !o.Found() && budgetLeft(o, maxRequests) && steps < stepCap(maxRequests); steps++ {
		view, ok := o.ViewOf(cur)
		if !ok {
			return Result{}, fmt.Errorf("search: walk standing on unknown vertex %d", cur)
		}
		if view.Degree == 0 {
			break
		}
		// A uniform unrevealed slot: the k-th in ascending order for a
		// uniform k < Unresolved. Once every slot is known — the usual
		// state of a hub the walk keeps returning to — no scan runs.
		var slot int
		if view.Unresolved > 0 {
			slot = view.unresolvedSlot(r.Intn(view.Unresolved))
		} else {
			slot = r.Intn(view.Degree)
		}
		next, _, err := o.RequestEdge(cur, slot)
		if err != nil {
			return Result{}, err
		}
		cur = next
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}

// Flood explores in breadth-first order: it resolves every slot of
// every discovered vertex in discovery order. It is the weak-model
// analogue of flooding a query and an upper-bound baseline — it visits
// everything, so it always finds a connected target within a budget of
// m requests.
type Flood struct{}

// NewFlood returns the weak-model BFS/flooding searcher.
func NewFlood() *Flood { return &Flood{} }

// Name implements Algorithm.
func (*Flood) Name() string { return "flood" }

// Knowledge implements Algorithm.
func (*Flood) Knowledge() Knowledge { return Weak }

// Search implements Algorithm.
func (*Flood) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewFlood(), o); err != nil {
		return Result{}, err
	}
	for i := 0; i < len(o.Discovered()); i++ {
		u := o.Discovered()[i]
		view, _ := o.ViewOf(u)
		for slot := 0; slot < view.Degree; slot++ {
			if o.Found() || !budgetLeft(o, maxRequests) {
				return Result{Found: o.Found(), Requests: o.Requests()}, nil
			}
			if view.Resolved[slot] != graph.NoVertex {
				continue
			}
			if _, _, err := o.RequestEdge(u, slot); err != nil {
				return Result{}, err
			}
		}
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}

// RandomEdge resolves a uniformly random unresolved slot over the whole
// discovered set at every step — an unfocused crawler that spreads
// requests rather than walking.
type RandomEdge struct{}

// NewRandomEdge returns the uniform-frontier weak-model searcher.
func NewRandomEdge() *RandomEdge { return &RandomEdge{} }

// Name implements Algorithm.
func (*RandomEdge) Name() string { return "random-edge" }

// Knowledge implements Algorithm.
func (*RandomEdge) Knowledge() Knowledge { return Weak }

// slotRef names one slot of a discovered vertex: an entry of
// RandomEdge's frontier pool.
type slotRef struct {
	v    graph.Vertex
	slot int
}

// Search implements Algorithm.
func (*RandomEdge) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewRandomEdge(), o); err != nil {
		return Result{}, err
	}
	ws := o.work()
	pool := ws.pool[:0]
	known := 0
	for !o.Found() && budgetLeft(o, maxRequests) {
		for ; known < len(o.Discovered()); known++ {
			v := o.Discovered()[known]
			view, _ := o.ViewOf(v)
			for slot, w := range view.Resolved {
				if w == graph.NoVertex {
					pool = append(pool, slotRef{v, slot})
				}
			}
		}
		// Lazy deletion: drop stale references (slots resolved from the
		// far side) as they surface.
		found := false
		for len(pool) > 0 {
			i := r.Intn(len(pool))
			ref := pool[i]
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			view, _ := o.ViewOf(ref.v)
			if view.Resolved[ref.slot] != graph.NoVertex {
				continue
			}
			if _, _, err := o.RequestEdge(ref.v, ref.slot); err != nil {
				return Result{}, err
			}
			found = true
			break
		}
		if !found {
			break // frontier exhausted: component fully explored
		}
	}
	ws.pool = pool
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}

// DegreeGreedyWeak is the weak-model degree-driven searcher: it always
// spends its next request on an unresolved slot of the highest-degree
// discovered vertex (ties broken towards older identities). It is the
// closest weak-model analogue of Adamic et al.'s high-degree strategy,
// which needs neighbor degrees and therefore lives in the strong model.
type DegreeGreedyWeak struct{}

// NewDegreeGreedyWeak returns the weak-model degree-greedy searcher.
func NewDegreeGreedyWeak() *DegreeGreedyWeak { return &DegreeGreedyWeak{} }

// Name implements Algorithm.
func (*DegreeGreedyWeak) Name() string { return "degree-greedy-weak" }

// Knowledge implements Algorithm.
func (*DegreeGreedyWeak) Knowledge() Knowledge { return Weak }

// Search implements Algorithm.
func (*DegreeGreedyWeak) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewDegreeGreedyWeak(), o); err != nil {
		return Result{}, err
	}
	return greedyWeak(o, maxRequests, func(v graph.Vertex, deg int) int64 {
		// Max degree first; ties to older (smaller) identities.
		return -int64(deg)<<32 + int64(v)
	})
}

// IDGreedyWeak spends its next request on the discovered vertex whose
// identity is closest to the target's. In evolving models identity
// equals age, so this strategy exploits exactly the label/age
// correlation the paper's equivalence argument shows to be useless
// near the target.
type IDGreedyWeak struct{}

// NewIDGreedyWeak returns the weak-model identity-greedy searcher.
func NewIDGreedyWeak() *IDGreedyWeak { return &IDGreedyWeak{} }

// Name implements Algorithm.
func (*IDGreedyWeak) Name() string { return "id-greedy-weak" }

// Knowledge implements Algorithm.
func (*IDGreedyWeak) Knowledge() Knowledge { return Weak }

// Search implements Algorithm.
func (*IDGreedyWeak) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewIDGreedyWeak(), o); err != nil {
		return Result{}, err
	}
	target := int64(o.Target())
	return greedyWeak(o, maxRequests, func(v graph.Vertex, deg int) int64 {
		d := int64(v) - target
		if d < 0 {
			d = -d
		}
		return d<<32 + int64(v)
	})
}

// greedyWeak is the shared engine of the weak-model greedy searchers:
// repeatedly pick the discovered vertex minimizing priority among those
// with unresolved slots, and resolve its first unresolved slot.
func greedyWeak(o *Oracle, maxRequests int, priority func(v graph.Vertex, deg int) int64) (Result, error) {
	h := &o.work().heaps[0]
	h.reset()
	known := 0
	for !o.Found() && budgetLeft(o, maxRequests) {
		for ; known < len(o.Discovered()); known++ {
			v := o.Discovered()[known]
			view, _ := o.ViewOf(v)
			h.push(priority(v, view.Degree), v)
		}
		e, ok := h.pop()
		if !ok {
			break // everything resolved: component exhausted
		}
		view, _ := o.ViewOf(e.v)
		if view.Unresolved == 0 {
			continue // stale entry
		}
		if _, _, err := o.RequestEdge(e.v, view.firstUnresolved()); err != nil {
			return Result{}, err
		}
		if view.Unresolved > 0 {
			h.push(e.prio, e.v) // still has slots: stays a candidate
		}
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}
