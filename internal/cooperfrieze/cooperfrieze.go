// Package cooperfrieze implements the Cooper–Frieze general model of
// evolving web graphs, the second graph family covered by the paper's
// Ω(√n) non-searchability theorem (Theorem 2).
//
// Following the paper's informal description (and its rephrasing of
// preferential choices to use indegree), the process starts from a
// small seed and at each step:
//
//   - with probability α runs procedure New: a new vertex arrives with
//     j outgoing edges, j drawn from the distribution q; each terminal
//     is chosen preferentially (proportionally to indegree) with
//     probability β, uniformly otherwise;
//   - with probability 1−α runs procedure Old: an existing vertex is
//     selected (uniformly with probability δ, preferentially by
//     indegree otherwise) and emits j new outgoing edges, j drawn from
//     the distribution p; each terminal is chosen preferentially with
//     probability γ, uniformly otherwise.
//
// Vertex identities equal arrival order, so — as in the Móri model —
// identity n is the youngest vertex and the hard search target.
// Generation stops once N vertices exist; because every new vertex
// emits at least one edge on arrival, the graph is connected by
// construction (the seed is vertex 1 with a self-loop, which gives the
// preferential choice its initial mass, as in the original model).
//
// Every preferential/uniform mixture in the process flips its coin
// before drawing a vertex, so the preferential draw is pure hit-count
// sampling and the generator runs on the O(1) endpoint array
// (weights.EndpointArray): an N-vertex graph costs O(N) expected time
// and O(1) allocations (amortized zero with a Scratch). The tests keep
// the historical O(N log N) Fenwick-tree generator as the reference
// implementation (chi-square equivalence), and BenchmarkGenerate times
// the two against each other; they consume RNG streams differently, so
// equal seeds yield different (identically distributed) graphs.
package cooperfrieze

import (
	"fmt"
	"math"

	"scalefree/internal/buf"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/weights"
)

// Config parameterizes the Cooper–Frieze process. The zero value is
// invalid; all probabilities must lie in [0, 1] with 0 < Alpha <= 1,
// and the out-degree distributions assign weight i+1 edges to index i
// (so they can never draw zero edges).
type Config struct {
	N     int     // number of vertices, >= 2
	Alpha float64 // P(procedure New); must be positive or N is never reached
	Beta  float64 // P(New-edge terminal is preferential)
	Gamma float64 // P(Old-edge terminal is preferential)
	Delta float64 // P(Old source is chosen uniformly)

	// QWeights[i] is the weight of a New vertex emitting i+1 edges.
	// Defaults to {1} (always one edge).
	QWeights []float64
	// PWeights[i] is the weight of an Old step emitting i+1 edges.
	// Defaults to {1}.
	PWeights []float64

	// AllowLoops permits an Old step to pick its source as a terminal
	// (the original model allows loops). When false, loop draws are
	// retried a bounded number of times and then fall back to a uniform
	// non-source vertex.
	AllowLoops bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("cooperfrieze: N = %d < 2", c.N)
	}
	if math.IsNaN(c.Alpha) || c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("cooperfrieze: Alpha = %v out of (0, 1]", c.Alpha)
	}
	probs := []struct {
		name string
		v    float64
	}{{"Beta", c.Beta}, {"Gamma", c.Gamma}, {"Delta", c.Delta}}
	for _, p := range probs {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("cooperfrieze: %s = %v out of [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// Result carries the generated graph together with process metadata.
type Result struct {
	Graph    *graph.Graph
	Steps    int // total process steps (New + Old)
	OldSteps int
	// ArrivalOutDeg[v] is the number of out-edges vertex v emitted on
	// arrival (its procedure-New edges). Comparing it with the final
	// out-degree tells whether v was later selected as an Old-step
	// source — one of the conditions of the equivalence event behind
	// Theorem 2.
	ArrivalOutDeg []int
}

// Generate runs the process until N vertices exist and returns the
// frozen graph. Vertex 1 is the seed (with a self-loop); vertices are
// numbered by arrival.
func (c Config) Generate(r *rng.RNG) (*Result, error) {
	return c.GenerateScratch(r, new(Scratch))
}

// Scratch holds the reusable buffers of one generation worker: the
// edge-list builder, its CSR snapshot, the endpoint array, and the
// Result with its arrival-degree record. The zero value is ready to
// use; after a warm-up generation, repeated same-size GenerateScratch
// calls stay allocation-free apart from the small out-degree
// distribution tables (O(1) per call).
type Scratch struct {
	builder graph.Builder
	g       graph.Graph
	ends    weights.EndpointArray
	res     Result
}

// GenerateScratch is Generate drawing the identical distribution (and,
// for equal seeds, the identical graph) through s's reusable buffers.
// The returned Result and its graph alias s and are valid until the
// next call with the same scratch; callers that outlive the scratch
// must copy (or use Generate, which allocates a private scratch).
func (c Config) GenerateScratch(r *rng.RNG, s *Scratch) (*Result, error) {
	if s == nil {
		return c.Generate(r)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	qDist, err := outDegreeDist(c.QWeights, "QWeights")
	if err != nil {
		return nil, err
	}
	pDist, err := outDegreeDist(c.PWeights, "PWeights")
	if err != nil {
		return nil, err
	}

	// Size the edge arrays for the expected step count N/alpha (plus
	// the mean out-degrees' pull above one edge per step, covered by
	// the slack factor); append growth handles the tail of the
	// distribution, so the hint only tunes first-touch cost.
	edgeHint := int(float64(c.N)/c.Alpha) + c.N/2
	b := &s.builder
	b.Reset(c.N, edgeHint)
	s.ends.Reset(edgeHint)
	ends := &s.ends

	// Seed: vertex 1 with a self-loop so preferential mass is positive.
	b.AddVertex()
	b.AddEdge(1, 1)
	ends.Record(1)

	res := &s.res
	res.Graph = nil
	res.Steps, res.OldSteps = 0, 0
	res.ArrivalOutDeg = buf.GrowClear(res.ArrivalOutDeg, c.N+1)
	res.ArrivalOutDeg[1] = 1 // the seed loop
	for b.NumVertices() < c.N {
		res.Steps++
		// While only the seed exists, an Old step without loops has no
		// legal terminal, so procedure New is forced in that case.
		mustNew := !c.AllowLoops && b.NumVertices() == 1
		if mustNew || r.Bernoulli(c.Alpha) {
			v := b.AddVertex()
			edges := qDist.Sample(r) + 1
			res.ArrivalOutDeg[v] = edges
			for i := 0; i < edges; i++ {
				// New-vertex edges go to older vertices only, as in the
				// Móri model: the eligible range excludes v itself.
				w := c.pickTerminal(r, ends, c.Beta, v, int(v)-1)
				b.AddEdge(v, w)
				ends.Record(int32(w))
			}
			continue
		}
		res.OldSteps++
		src := c.pickOldSource(r, b, ends)
		edges := pDist.Sample(r) + 1
		for i := 0; i < edges; i++ {
			w := c.pickTerminal(r, ends, c.Gamma, src, b.NumVertices())
			b.AddEdge(src, w)
			ends.Record(int32(w))
		}
	}
	res.Graph = b.FreezeInto(&s.g)
	return res, nil
}

// pickTerminal selects an edge terminal among vertices 1..limit:
// preferential by indegree with probability prefProb, else uniform.
// Draws equal to src are retried when loops are disallowed. The
// preferential draw is a uniform pick from the endpoint array (one
// entry per indegree hit); the seed loop guarantees positive mass, and
// the mass always lies within 1..limit (a New vertex never receives
// indegree during its own arrival), so the out-of-range retry is a
// belt-and-braces guard.
func (c Config) pickTerminal(r *rng.RNG, ends *weights.EndpointArray, prefProb float64, src graph.Vertex, limit int) graph.Vertex {
	const maxRetries = 32
	for attempt := 0; ; attempt++ {
		var w graph.Vertex
		if r.Bernoulli(prefProb) {
			w = graph.Vertex(ends.Sample(r))
			if int(w) > limit {
				continue
			}
		} else {
			w = graph.Vertex(r.IntRange(1, limit))
		}
		if c.AllowLoops || w != src || limit == 1 {
			return w
		}
		if attempt >= maxRetries {
			// Deterministic fallback: uniform over the non-source
			// vertices in range.
			w = graph.Vertex(r.IntRange(1, limit-1))
			if w >= src {
				w++
			}
			return w
		}
	}
}

// pickOldSource selects the emitting vertex of an Old step: uniform
// with probability Delta, preferential by indegree otherwise.
func (c Config) pickOldSource(r *rng.RNG, b *graph.Builder, ends *weights.EndpointArray) graph.Vertex {
	if r.Bernoulli(c.Delta) || ends.Total() == 0 {
		return graph.Vertex(r.IntRange(1, b.NumVertices()))
	}
	return graph.Vertex(ends.Sample(r))
}

func outDegreeDist(ws []float64, name string) (*rng.Discrete, error) {
	if len(ws) == 0 {
		ws = []float64{1}
	}
	d, err := rng.NewDiscrete(ws)
	if err != nil {
		return nil, fmt.Errorf("cooperfrieze: invalid %s: %w", name, err)
	}
	return d, nil
}
