// Package geopa implements a geometric (spatial) preferential-
// attachment model, the second workload of the paper's closing remark
// (experiment E13 runs the weak/strong search battery on it).
//
// Each vertex arrives at an independent uniform position on the unit
// torus [0,1)²; every later vertex t attaches M edges to existing
// vertices chosen with probability proportional to
//
//	d_t(u) · e^{−dist(x_t, x_u)/R},
//
// where d_t(u) is the total degree of u, dist is the torus Euclidean
// distance, and R > 0 is the kernel range. This is the soft-kernel
// cousin of the Flaxman–Frieze–Vera geometric preferential-attachment
// model (and of the SPA family): degree still drives attachment, but
// geography damps it, so hubs are local and the age/degree correlation
// the paper's lower bounds exploit coexists with spatial clustering.
// R → ∞ degenerates to pure Barabási–Albert.
//
// The sampler stays on the O(1) endpoint array by rejection: a uniform
// draw from the array of recorded edge endpoints is a draw
// proportional to degree, and accepting it with probability
// e^{−dist/R} makes the joint draw exactly proportional to
// degree·kernel. The kernel is bounded below by e^{−√2/(2R)} (the
// torus diameter), so the rejection loop is exact and terminates in
// O(e^{√2/(2R)}) expected attempts — O(1) for fixed R — with O(1)
// allocations (amortized zero with a Scratch). The tests keep an O(n)
// per-draw exact-inversion sampler as the reference implementation the
// rejection path is validated against (chi-square equivalence); the
// two consume RNG streams differently, so equal seeds yield different
// (identically distributed) graphs.
package geopa

import (
	"fmt"
	"math"

	"scalefree/internal/buf"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/weights"
)

// MinR is the practical floor on Config.R: expected rejection
// attempts per edge grow as e^{dist/R} (typical torus distance
// ≈ 0.38), so values below this would turn generation into an
// effectively unbounded busy-loop. At the floor the expected cost is
// ~e^{7.7} ≈ 2000 attempts per edge — slow but bounded.
const MinR = 0.05

// Config describes a geometric preferential-attachment graph.
type Config struct {
	N int     // number of vertices, >= 2
	M int     // edges added per new vertex, >= 1
	R float64 // proximity kernel range, >= MinR
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("geopa: N = %d < 2", c.N)
	}
	if c.M < 1 {
		return fmt.Errorf("geopa: M = %d < 1", c.M)
	}
	if math.IsNaN(c.R) || c.R <= 0 {
		return fmt.Errorf("geopa: R = %v must be positive", c.R)
	}
	if c.R < MinR {
		return fmt.Errorf("geopa: R = %v below the practical floor %v (expected rejection attempts grow as e^{dist/R})", c.R, MinR)
	}
	return nil
}

// String implements fmt.Stringer for bench and log labels.
func (c Config) String() string {
	return fmt.Sprintf("geopa(n=%d,m=%d,r=%g)", c.N, c.M, c.R)
}

// numEdges is the exact final edge count: the seed loop plus M edges
// per later vertex.
func (c Config) numEdges() int { return 1 + c.M*(c.N-1) }

// torusDist returns the Euclidean distance between two points on the
// unit torus (per-axis wraparound).
func torusDist(x1, y1, x2, y2 float64) float64 {
	dx := math.Abs(x1 - x2)
	if dx > 0.5 {
		dx = 1 - dx
	}
	dy := math.Abs(y1 - y2)
	if dy > 0.5 {
		dy = 1 - dy
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// kernel is the proximity damping e^{−d/R}, in (0, 1].
func (c Config) kernel(d float64) float64 { return math.Exp(-d / c.R) }

// Scratch holds the reusable buffers of one generation worker: the
// edge-list builder, its CSR snapshot, the endpoint array, and the
// vertex position tables. The zero value is ready to use; after a
// warm-up generation, repeated same-size GenerateScratch calls
// allocate nothing.
type Scratch struct {
	builder graph.Builder
	g       graph.Graph
	ends    weights.EndpointArray
	xs, ys  []float64
}

// Generate draws a geometric PA graph: vertex 1 carries a seed
// self-loop at a uniform position, and every later vertex t arrives at
// a uniform position and attaches M edges chosen proportionally to
// degree·e^{−dist/R} (multi-edges allowed). The result is connected
// with 1 + M·(N-1) edges. Generate is GenerateScratch on a fresh
// scratch, and the graph it returns pins none of that scratch's
// working buffers.
func (c Config) Generate(r *rng.RNG) (*graph.Graph, error) {
	g, err := c.GenerateScratch(r, new(Scratch))
	if err != nil {
		return nil, err
	}
	out := *g
	return &out, nil
}

// GenerateScratch is Generate drawing the identical distribution (and,
// for equal seeds, the identical graph) through s's reusable buffers.
// The returned graph aliases s and is valid until the next call with
// the same scratch; callers that outlive the scratch must use
// Generate.
func (c Config) GenerateScratch(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s.builder.Reset(c.N, c.numEdges())
	s.ends.Reset(2 * c.numEdges())
	s.xs = buf.Grow(s.xs, c.N+1)
	s.ys = buf.Grow(s.ys, c.N+1)
	c.generate(r, &s.builder, &s.ends, s.xs, s.ys)
	return s.builder.FreezeInto(&s.g), nil
}

// generate runs the attachment process into a freshly reset builder,
// endpoint array, and position tables (length N+1).
func (c Config) generate(r *rng.RNG, b *graph.Builder, ends *weights.EndpointArray, xs, ys []float64) {
	b.AddVertex()
	xs[1], ys[1] = r.Float64(), r.Float64()
	b.AddEdge(1, 1)
	ends.Record(1)
	ends.Record(1)

	for t := 2; t <= c.N; t++ {
		v := b.AddVertex()
		vx, vy := r.Float64(), r.Float64()
		xs[v], ys[v] = vx, vy
		for i := 0; i < c.M; i++ {
			// Rejection: a degree-proportional endpoint draw accepted
			// with probability e^{−dist/R} makes the joint draw
			// ∝ degree·kernel. The kernel never vanishes (the torus
			// diameter bounds dist), so the loop is exact and its
			// expected attempt count is a constant for fixed R.
			var w graph.Vertex
			for {
				w = graph.Vertex(ends.Sample(r))
				if r.Bernoulli(c.kernel(torusDist(vx, vy, xs[w], ys[w]))) {
					break
				}
			}
			b.AddEdge(v, w)
		}
		// Record after all M draws so one vertex's edges are
		// exchangeable, exactly as in the BA generator.
		for i := 0; i < c.M; i++ {
			e := graph.EdgeID(b.NumEdges() - c.M + i)
			from, to := b.Endpoints(e)
			ends.Record(int32(from))
			ends.Record(int32(to))
		}
	}
}
