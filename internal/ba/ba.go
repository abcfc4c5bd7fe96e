// Package ba implements the classic Barabási–Albert preferential
// attachment model with attachment proportional to total degree.
//
// The paper uses BA-style models as the contrast case for its strong-
// model bound: preferential attachment by total degree yields a maximum
// degree of order n^(1/2), which is *too large* for the strong-model
// reduction to bite (the paper's Conclusion), whereas the Móri model's
// maximum degree of order n^p (p < 1/2) keeps the bound non-trivial.
// Experiment E5 measures exactly this contrast.
//
// The generator uses the append-only endpoint-array trick: because BA
// attachment weights are exact degree counts, a uniform draw from the
// array of all edge endpoints is a draw proportional to total degree,
// giving O(1) per edge.
package ba

import (
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/weights"
)

// Config describes a Barabási–Albert graph.
type Config struct {
	N int // number of vertices, >= 2
	M int // edges added per new vertex, >= 1
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("ba: N = %d < 2", c.N)
	}
	if c.M < 1 {
		return fmt.Errorf("ba: M = %d < 1", c.M)
	}
	return nil
}

// numEdges is the exact final edge count: the seed loop plus M edges
// per later vertex.
func (c Config) numEdges() int { return 1 + c.M*(c.N-1) }

// Generate draws a BA graph: vertex 1 carries a seed self-loop, and
// every later vertex t attaches M edges to existing vertices chosen
// proportionally to total degree (multi-edges allowed, matching the
// Bollobás–Riordan formalization). The result is connected with
// 1 + M·(N-1) edges. Generate is GenerateScratch on a fresh scratch,
// and the graph it returns pins none of that scratch's working
// buffers.
func (c Config) Generate(r *rng.RNG) (*graph.Graph, error) {
	g, err := c.GenerateScratch(r, new(Scratch))
	if err != nil {
		return nil, err
	}
	out := *g
	return &out, nil
}

// Scratch holds the reusable buffers of one generation worker: the
// edge-list builder, its CSR snapshot, and the endpoint array. The
// zero value is ready to use; after a warm-up generation, repeated
// same-size GenerateScratch calls allocate nothing.
type Scratch struct {
	builder graph.Builder
	g       graph.Graph
	ends    weights.EndpointArray
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
	c.generate(r, &s.builder, &s.ends)
	return s.builder.FreezeInto(&s.g), nil
}

// generate runs the attachment process into a freshly reset builder
// and endpoint array.
func (c Config) generate(r *rng.RNG, b *graph.Builder, ends *weights.EndpointArray) {
	b.AddVertex()
	b.AddEdge(1, 1)
	ends.Record(1)
	ends.Record(1)

	for t := 2; t <= c.N; t++ {
		v := b.AddVertex()
		for i := 0; i < c.M; i++ {
			// Sampling from the endpoint array *before* recording this
			// edge's own endpoints implements attachment proportional
			// to the degrees at the start of the step.
			w := graph.Vertex(ends.Sample(r))
			b.AddEdge(v, w)
		}
		// Record after all M draws so the M edges of one vertex are
		// exchangeable.
		for i := 0; i < c.M; i++ {
			e := graph.EdgeID(b.NumEdges() - c.M + i)
			from, to := b.Endpoints(e)
			ends.Record(int32(from))
			ends.Record(int32(to))
		}
	}
}
