// Package kleinberg implements Kleinberg's navigable small-world model:
// an L×L torus grid where every vertex keeps its local edges and adds q
// long-range links chosen with probability proportional to d(u,v)^(−r),
// plus the greedy geographic routing algorithm.
//
// This is the navigable counterpoint the paper contrasts against: at
// r = 2 greedy routing delivers in O(log² n) steps, while for any other
// r (and, the paper proves, for scale-free evolving graphs under any
// local algorithm) delivery time is polynomial. Experiment E9
// reproduces the r-sweep.
package kleinberg

import (
	"fmt"
	"math"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// Config describes a Kleinberg grid.
type Config struct {
	L int     // side length; the graph has L² vertices
	R float64 // long-range exponent r >= 0
	Q int     // long-range links per vertex (default 1)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.L < 2 {
		return fmt.Errorf("kleinberg: L = %d < 2", c.L)
	}
	if math.IsNaN(c.R) || c.R < 0 {
		return fmt.Errorf("kleinberg: R = %v is not >= 0", c.R)
	}
	if c.Q < 0 {
		return fmt.Errorf("kleinberg: Q = %d < 0", c.Q)
	}
	return nil
}

// Grid is a realized Kleinberg small world: the frozen graph plus the
// geometry needed by greedy routing.
type Grid struct {
	L     int
	Graph *graph.Graph
}

// Generate draws a grid. Local edges connect each vertex to its right
// and down torus neighbors (the undirected view yields the full
// 4-neighborhood); each vertex then adds q directed long-range links
// with P(v) ∝ d(u,v)^(−r) over all v ≠ u.
func (c Config) Generate(r *rng.RNG) (*Grid, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	q := c.Q
	if q == 0 {
		q = 1
	}
	L := c.L
	n := L * L
	b := graph.NewBuilder(n, 2*n+q*n)
	b.AddVertices(n)

	g := &Grid{L: L}
	for v := graph.Vertex(1); v <= graph.Vertex(n); v++ {
		x, y := g.Coord(v)
		b.AddEdge(v, g.VertexAt((x+1)%L, y))
		b.AddEdge(v, g.VertexAt(x, (y+1)%L))
	}

	// Long-range links: sample a distance class proportional to
	// count(d)·d^(−r), then a uniform offset within the class.
	buckets, dist, err := offsetBuckets(L, c.R)
	if err != nil {
		return nil, err
	}
	for v := graph.Vertex(1); v <= graph.Vertex(n); v++ {
		x, y := g.Coord(v)
		for i := 0; i < q; i++ {
			class := buckets[dist.Sample(r)]
			off := class[r.Intn(len(class))]
			b.AddEdge(v, g.VertexAt((x+off[0])%L, (y+off[1])%L))
		}
	}
	g.Graph = b.Freeze()
	return g, nil
}

// offsetBuckets groups all non-zero torus offsets by Manhattan distance
// and builds the distance-class distribution with weights
// count(d)·d^(−r).
func offsetBuckets(L int, r float64) ([][][2]int, *rng.Discrete, error) {
	maxD := L // torus Manhattan distance is at most 2·(L/2)
	byDist := make([][][2]int, maxD+1)
	for dx := 0; dx < L; dx++ {
		for dy := 0; dy < L; dy++ {
			if dx == 0 && dy == 0 {
				continue
			}
			d := torusAxis(dx, L) + torusAxis(dy, L)
			byDist[d] = append(byDist[d], [2]int{dx, dy})
		}
	}
	var buckets [][][2]int
	var weights []float64
	for d := 1; d <= maxD; d++ {
		if len(byDist[d]) == 0 {
			continue
		}
		buckets = append(buckets, byDist[d])
		weights = append(weights, float64(len(byDist[d]))*powNeg(float64(d), r))
	}
	dist, err := rng.NewDiscrete(weights)
	if err != nil {
		return nil, nil, fmt.Errorf("kleinberg: building distance distribution: %w", err)
	}
	return buckets, dist, nil
}

func powNeg(d, r float64) float64 {
	if r == 0 {
		return 1
	}
	return math.Pow(d, -r)
}

// Coord returns the (x, y) grid coordinates of v.
func (g *Grid) Coord(v graph.Vertex) (x, y int) {
	idx := int(v) - 1
	return idx % g.L, idx / g.L
}

// VertexAt returns the vertex at grid coordinates (x, y), both taken
// modulo L by the callers.
func (g *Grid) VertexAt(x, y int) graph.Vertex {
	return graph.Vertex(y*g.L + x + 1)
}

// Dist returns the torus Manhattan distance between two vertices.
func (g *Grid) Dist(a, b graph.Vertex) int {
	ax, ay := g.Coord(a)
	bx, by := g.Coord(b)
	return torusAxis(ax-bx, g.L) + torusAxis(ay-by, g.L)
}

func torusAxis(d, l int) int {
	if d < 0 {
		d = -d
	}
	if l-d < d {
		return l - d
	}
	return d
}

// RouteResult reports one greedy routing run.
type RouteResult struct {
	Steps     int
	Delivered bool
}

// GreedyRoute runs Kleinberg's greedy routing from s to t: at every
// step the message moves to the incident neighbor (local or long-range,
// over the undirected view) closest to t in torus Manhattan distance.
// Local edges guarantee progress, so routing always delivers; the
// maxSteps cap (<= 0 means no cap) exists for instrumentation.
func (g *Grid) GreedyRoute(s, t graph.Vertex, maxSteps int) RouteResult {
	cur := s
	steps := 0
	for cur != t {
		if maxSteps > 0 && steps >= maxSteps {
			return RouteResult{Steps: steps, Delivered: false}
		}
		best := graph.NoVertex
		bestD := g.Dist(cur, t)
		for _, h := range g.Graph.Incident(cur) {
			if d := g.Dist(h.Other, t); d < bestD {
				best = h.Other
				bestD = d
			}
		}
		// A local neighbor always strictly decreases distance, so best
		// is never NoVertex here.
		cur = best
		steps++
	}
	return RouteResult{Steps: steps, Delivered: true}
}
