// Package fitness implements the Bianconi–Barabási vertex-fitness
// model of growing scale-free graphs, the first of the two workloads
// the paper's closing remark invites ("the technique we used seems
// broad enough to be adapted to other models of growing random
// graphs") — experiment E12 runs the weak/strong search battery on it.
//
// Each vertex v draws a fitness η_v on arrival, uniform on [Eta0, 1];
// every later vertex t attaches M edges to existing vertices chosen
// with probability proportional to
//
//	η_u · d_t(u),
//
// where d_t(u) is the total degree of u. Fitness breaks the pure
// age/degree correlation of Barabási–Albert: a young, fit vertex can
// overtake old incumbents ("fit-get-richer"), and with uniform fitness
// the degree distribution keeps a power-law tail (exponent ≈ 2.25 with
// logarithmic corrections for Eta0 → 0; Eta0 = 1 degenerates to pure
// BA with exponent 3).
//
// The sampler stays on the O(1) endpoint array by rejection: a uniform
// draw from the array of all recorded edge endpoints is a draw
// proportional to degree, and accepting it with probability η_u makes
// the joint draw exactly proportional to η_u·d(u). Fitness is bounded
// below by Eta0 > 0, so each attempt accepts with probability at least
// Eta0 and generation costs O(n·M/Eta0) expected time with O(1)
// allocations (amortized zero with a Scratch). The tests keep an O(n)
// per-draw exact-inversion sampler as the reference implementation the
// rejection path is validated against (chi-square equivalence); the
// two consume RNG streams differently, so equal seeds yield different
// (identically distributed) graphs.
package fitness

import (
	"fmt"
	"math"

	"scalefree/internal/buf"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/weights"
)

// MinEta0 is the practical floor on Config.Eta0: the rejection
// sampler's expected attempts per edge are ~1/Eta0, so values below
// this would turn generation into an effectively unbounded busy-loop
// (the floor still allows 100 expected attempts per edge).
const MinEta0 = 0.01

// Config describes a Bianconi–Barabási fitness graph.
type Config struct {
	N    int     // number of vertices, >= 2
	M    int     // edges added per new vertex, >= 1
	Eta0 float64 // minimum fitness, in [MinEta0, 1]; fitness ~ U[Eta0, 1]
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("fitness: N = %d < 2", c.N)
	}
	if c.M < 1 {
		return fmt.Errorf("fitness: M = %d < 1", c.M)
	}
	if math.IsNaN(c.Eta0) || c.Eta0 <= 0 || c.Eta0 > 1 {
		return fmt.Errorf("fitness: Eta0 = %v out of (0, 1]", c.Eta0)
	}
	if c.Eta0 < MinEta0 {
		return fmt.Errorf("fitness: Eta0 = %v below the practical floor %v (expected rejection attempts per edge are ~1/Eta0)", c.Eta0, MinEta0)
	}
	return nil
}

// String implements fmt.Stringer for bench and log labels.
func (c Config) String() string {
	return fmt.Sprintf("fitness(n=%d,m=%d,eta0=%g)", c.N, c.M, c.Eta0)
}

// numEdges is the exact final edge count: the seed loop plus M edges
// per later vertex.
func (c Config) numEdges() int { return 1 + c.M*(c.N-1) }

// drawFitness samples one arrival fitness, uniform on [Eta0, 1].
func (c Config) drawFitness(r *rng.RNG) float64 {
	return c.Eta0 + (1-c.Eta0)*r.Float64()
}

// Scratch holds the reusable buffers of one generation worker: the
// edge-list builder, its CSR snapshot, the endpoint array, and the
// per-vertex fitness table. The zero value is ready to use; after a
// warm-up generation, repeated same-size GenerateScratch calls
// allocate nothing.
type Scratch struct {
	builder graph.Builder
	g       graph.Graph
	ends    weights.EndpointArray
	eta     []float64
}

// Generate draws a fitness graph: vertex 1 carries a seed self-loop
// (positive initial degree mass, as in the BA generator), and every
// later vertex t attaches M edges to existing vertices chosen
// proportionally to η·degree (multi-edges allowed). The result is
// connected with 1 + M·(N-1) edges. Generate is GenerateScratch on a
// fresh scratch, and the graph it returns pins none of that scratch's
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
	s.eta = buf.Grow(s.eta, c.N+1)
	c.generate(r, &s.builder, &s.ends, s.eta)
	return s.builder.FreezeInto(&s.g), nil
}

// generate runs the attachment process into a freshly reset builder,
// endpoint array, and fitness table (length N+1).
func (c Config) generate(r *rng.RNG, b *graph.Builder, ends *weights.EndpointArray, eta []float64) {
	b.AddVertex()
	eta[1] = c.drawFitness(r)
	b.AddEdge(1, 1)
	ends.Record(1)
	ends.Record(1)

	for t := 2; t <= c.N; t++ {
		v := b.AddVertex()
		eta[v] = c.drawFitness(r)
		for i := 0; i < c.M; i++ {
			// Rejection: a degree-proportional endpoint draw accepted
			// with probability η makes the joint draw ∝ η·degree. The
			// array holds only vertices older than v, and η >= Eta0 > 0
			// bounds the expected attempts by 1/Eta0.
			var w graph.Vertex
			for {
				w = graph.Vertex(ends.Sample(r))
				if r.Bernoulli(eta[w]) {
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
