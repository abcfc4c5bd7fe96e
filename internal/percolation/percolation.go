// Package percolation implements the percolation search protocol of
// Sarshar, Boykin and Roychowdhury (P2P'04), the related-work P2P
// lookup scheme the paper cites: contents are replicated along short
// random walks, and queries combine a random walk with probabilistic
// ("bond percolation") broadcast from every walk vertex. On power-law
// networks with exponent 2 < k < 3, a replication level polynomial in n
// yields sublinear lookup traffic with high hit rates (experiment E10).
package percolation

import (
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// Config tunes a query. The replication walk's length is Replicate's
// own argument.
type Config struct {
	// QueryWalk is the length of the query's random walk.
	QueryWalk int
	// BroadcastProb is the bond-percolation probability: each edge
	// independently forwards the query with this probability.
	BroadcastProb float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.QueryWalk < 0 {
		return fmt.Errorf("percolation: QueryWalk = %d < 0", c.QueryWalk)
	}
	if c.BroadcastProb < 0 || c.BroadcastProb > 1 {
		return fmt.Errorf("percolation: BroadcastProb = %v out of [0, 1]", c.BroadcastProb)
	}
	return nil
}

// Replicate caches a content along a random walk from origin and
// returns the replica set (origin always included).
func Replicate(g *graph.Graph, r *rng.RNG, origin graph.Vertex, walkLen int) map[graph.Vertex]bool {
	replicas := map[graph.Vertex]bool{origin: true}
	cur := origin
	for i := 0; i < walkLen; i++ {
		deg := g.Degree(cur)
		if deg == 0 {
			break
		}
		cur = g.HalfAt(cur, r.Intn(deg)).Other
		replicas[cur] = true
	}
	return replicas
}

// Result reports one percolation query.
type Result struct {
	Hit      bool
	Messages int // walk steps plus percolated edge traversals
	Reached  int // distinct vertices that saw the query
}

// Query runs one lookup from start against the given replica set: a
// random walk of QueryWalk steps, with a percolated broadcast started
// at every walk vertex. Each edge of the graph independently forwards
// the broadcast with probability BroadcastProb (the bond decision is
// sampled once per edge and reused, which is what makes the scheme a
// percolation rather than a branching process).
func Query(g *graph.Graph, r *rng.RNG, replicas map[graph.Vertex]bool, start graph.Vertex, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if start < 1 || int(start) > g.NumVertices() {
		return Result{}, fmt.Errorf("percolation: start vertex %d out of range", start)
	}

	res := Result{}
	seen := map[graph.Vertex]bool{}
	bond := map[graph.EdgeID]bool{} // lazily sampled open/closed state
	queue := make([]graph.Vertex, 0, 64)

	visit := func(v graph.Vertex) {
		if !seen[v] {
			seen[v] = true
			res.Reached++
			if replicas[v] {
				res.Hit = true
			}
		}
	}

	// Walk phase: each step is one message; every walk vertex seeds the
	// broadcast queue.
	cur := start
	visit(cur)
	queue = append(queue, cur)
	for i := 0; i < cfg.QueryWalk; i++ {
		deg := g.Degree(cur)
		if deg == 0 {
			break
		}
		cur = g.HalfAt(cur, r.Intn(deg)).Other
		res.Messages++
		visit(cur)
		queue = append(queue, cur)
	}

	// Percolated broadcast from every seed: traverse each open edge
	// once.
	traversed := map[graph.EdgeID]bool{}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, h := range g.Incident(u) {
			if traversed[h.Edge] {
				continue
			}
			open, decided := bond[h.Edge]
			if !decided {
				open = r.Bernoulli(cfg.BroadcastProb)
				bond[h.Edge] = open
			}
			if !open {
				continue
			}
			traversed[h.Edge] = true
			res.Messages++
			if !seen[h.Other] {
				visit(h.Other)
				queue = append(queue, h.Other)
			}
		}
	}
	return res, nil
}
