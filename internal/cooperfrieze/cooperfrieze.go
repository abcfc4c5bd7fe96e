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
//
// DrawsAtMost consumes the generator's RNG outputs without building the
// graph and keeps only the verdict of the Theorem-2 equivalence event,
// for the Monte-Carlo estimator in package equivalence. Each step's
// draws have one definition (newStep, terminalDraw, sourceDraw,
// oldTerminal and the out-degree tables) that both passes call, so
// their streams cannot drift apart.
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
	// edgeHint reserves the edge and endpoint arrays before the first
	// step. From 2^30 edges on no graph could index them (its 2m
	// half-edges must stay below 2^31, DESIGN §8.4), so such a
	// configuration fails here, not in a giant allocation; the sum is
	// taken in float64 so that a tiny Alpha cannot overflow int.
	if hint := float64(c.N)/c.Alpha + float64(c.N/2); hint >= maxEdges {
		return fmt.Errorf("cooperfrieze: N = %d with Alpha = %v reserves %.4g edges, at or past the 2^30 a graph can index", c.N, c.Alpha, hint)
	}
	return nil
}

// maxEdges is the most edges a graph.Graph can index: its 2m
// half-edges are int32 indices.
const maxEdges = 1 << 30

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
// numbered by arrival. Generate is GenerateScratch on a fresh scratch,
// and the Result it returns pins none of that scratch's working
// buffers.
func (c Config) Generate(r *rng.RNG) (*Result, error) {
	res, err := c.GenerateScratch(r, new(Scratch))
	if err != nil {
		return nil, err
	}
	out, g := *res, *res.Graph
	out.Graph = &g
	return &out, nil
}

// Scratch holds the reusable buffers of one generation worker: the
// edge-list builder, its CSR snapshot, the endpoint array, and the
// Result with its arrival-degree record. The zero value is ready to
// use; after a warm-up generation, repeated same-size GenerateScratch
// calls stay allocation-free apart from the out-degree tables of a
// configuration with more than one weight (O(1) per call). DrawsAtMost
// uses only the endpoint array, and only when loops are disallowed.
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
// must use Generate.
func (c Config) GenerateScratch(r *rng.RNG, s *Scratch) (*Result, error) {
	q, p, err := c.tables()
	if err != nil {
		return nil, err
	}

	// Size the edge arrays for the expected step count N/alpha (plus
	// the mean out-degrees' pull above one edge per step, covered by
	// the slack factor); append growth handles the tail of the
	// distribution, so the hint only tunes first-touch cost.
	edgeHint := c.edgeHint()
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
		if c.newStep(r, b.NumVertices()) {
			v := b.AddVertex()
			edges := q.sample(r) + 1
			res.ArrivalOutDeg[v] = edges
			for i := 0; i < edges; i++ {
				// New-vertex edges go to older vertices only, as in the
				// Móri model: the eligible range excludes v itself.
				idx, pref := terminalDraw(r, c.Beta, ends.Total(), int(v)-1)
				w := vertexAt(ends, idx, pref)
				b.AddEdge(v, w)
				ends.Record(int32(w))
			}
			continue
		}
		res.OldSteps++
		idx, pref := c.sourceDraw(r, ends.Total(), b.NumVertices())
		src := vertexAt(ends, idx, pref)
		edges := p.sample(r) + 1
		for i := 0; i < edges; i++ {
			w := c.oldTerminal(r, ends, src, b.NumVertices())
			b.AddEdge(src, w)
			ends.Record(int32(w))
		}
	}
	res.Graph = b.FreezeInto(&s.g)
	return res, nil
}

// DrawsAtMost reports whether every vertex the process draws — each
// edge terminal and each Old-step source — is at most a, without
// building the graph. That is the Theorem-2 equivalence event for the
// window (a, N], which CheckEventCF (package equivalence) reads from a
// generated graph: its conditions 1 and 3 together say that no drawn
// terminal exceeds a, and condition 2 that no Old-step source does. It
// consumes exactly the RNG outputs GenerateScratch consumes, in the
// same order, so for equal seeds it returns CheckEventCF's verdict on
// the generated graph and leaves r in the same state. Both run their
// draws through the same step functions (newStep, outDegrees.sample,
// terminalDraw, sourceDraw, oldTerminal).
//
// While the event holds, every endpoint recorded so far is at most a,
// so a preferential draw cannot break it; only a uniform draw above a
// can. With loops allowed no draw reads an endpoint's value, so the
// pass counts endpoints instead of storing them. With loops disallowed
// an Old step's retry compares its drawn terminal with its source, so
// the pass keeps the endpoint array in s. A nil scratch allocates a
// private one.
func (c Config) DrawsAtMost(r *rng.RNG, a int, s *Scratch) (bool, error) {
	if s == nil {
		s = new(Scratch)
	}
	q, p, err := c.tables()
	if err != nil {
		return false, err
	}
	return c.drawsAtMost(r, a, q, p, &s.ends), nil
}

// drawsAtMost is DrawsAtMost's loop: GenerateScratch's draws with no
// builder. keep says whether ends holds the endpoints.
//
//sf:hotpath
func (c *Config) drawsAtMost(r *rng.RNG, a int, q, p outDegrees, ends *weights.EndpointArray) bool {
	keep := !c.AllowLoops
	if keep {
		ends.Reset(c.edgeHint())
		ends.Record(1) // the seed loop
	}
	numV, total := 1, 1
	var worst graph.Vertex // the largest vertex charged to a draw so far
	for numV < c.N {
		if c.newStep(r, numV) {
			numV++
			edges := q.sample(r) + 1
			for i := 0; i < edges; i++ {
				idx, pref := terminalDraw(r, c.Beta, total, numV-1)
				w := passVertex(ends, keep, idx, pref)
				if keep {
					ends.Record(int32(w))
				}
				worst = max(worst, w)
				total++
			}
			continue
		}
		idx, pref := c.sourceDraw(r, total, numV)
		src := passVertex(ends, keep, idx, pref)
		worst = max(worst, src)
		edges := p.sample(r) + 1
		for i := 0; i < edges; i++ {
			var w graph.Vertex
			if keep {
				w = c.oldTerminal(r, ends, src, numV)
				ends.Record(int32(w))
			} else {
				idx, pref := terminalDraw(r, c.Gamma, total, numV)
				w = passVertex(ends, false, idx, pref)
			}
			worst = max(worst, w)
			total++
		}
	}
	return int(worst) <= a
}

// passVertex is the vertex drawsAtMost charges to a draw: the drawn
// vertex when ends holds the endpoints, else the uniform one only. A
// preferential draw repeats a recorded endpoint, which is at most a
// while the event holds and cannot matter once it has failed.
func passVertex(ends *weights.EndpointArray, keep bool, idx int, pref bool) graph.Vertex {
	if keep {
		return vertexAt(ends, idx, pref)
	}
	w := graph.Vertex(idx + 1)
	if pref {
		w = 0
	}
	return w
}

// tables validates c and returns its two out-degree tables.
func (c Config) tables() (q, p outDegrees, err error) {
	if err := c.Validate(); err != nil {
		return q, p, err
	}
	if q, err = newOutDegrees(c.QWeights, "QWeights"); err != nil {
		return q, p, err
	}
	p, err = newOutDegrees(c.PWeights, "PWeights")
	return q, p, err
}

// edgeHint is the endpoint capacity both passes reserve: the expected
// step count N/alpha plus slack for out-degrees above one. Validate
// keeps it below maxEdges.
func (c Config) edgeHint() int { return int(float64(c.N)/c.Alpha) + c.N/2 }

// newStep makes the RNG calls that choose the next step: procedure New
// with probability Alpha, forced (with no draw) while only the seed
// exists and loops are disallowed, since an Old step would then have
// no legal terminal.
func (c *Config) newStep(r *rng.RNG, numV int) bool {
	return !c.AllowLoops && numV == 1 || coin(r, c.Alpha)
}

// terminalDraw makes the RNG calls of one terminal attempt among
// vertices 1..limit: the coin, preferential by indegree with
// probability prefProb, then one index. A preferential idx lies in
// [0, total) and indexes the endpoint array, which holds total entries
// (one per indegree hit); a uniform idx lies in [0, limit) and names
// vertex idx+1. Every endpoint lies within 1..limit: a New vertex
// receives no indegree during its own arrival, and an Old step's limit
// is the vertex count.
func terminalDraw(r *rng.RNG, prefProb float64, total, limit int) (idx int, pref bool) {
	pref = prefProb > 0 && (prefProb >= 1 || r.Float64() < prefProb) // coin(r, prefProb)
	n := limit
	if pref {
		n = total
	}
	return r.Intn(n), pref
}

// sourceDraw makes the RNG calls that select an Old step's emitting
// vertex among 1..numV: the coin, uniform with probability Delta, then
// one index, with terminalDraw's meaning of (idx, pref).
func (c *Config) sourceDraw(r *rng.RNG, total, numV int) (idx int, pref bool) {
	pref = !(c.Delta > 0 && (c.Delta >= 1 || r.Float64() < c.Delta)) // !coin(r, c.Delta)
	n := numV
	if pref {
		n = total
	}
	return r.Intn(n), pref
}

// oldTerminal draws an Old step's terminal among 1..numV for source
// src. When loops are disallowed a draw equal to src is retried, and
// after maxRetries retries a uniform non-source vertex is taken; the
// retry reads the drawn vertex, so ends must hold every endpoint. An
// Old step never runs with loops disallowed while numV = 1 (newStep
// forces New), so a non-source vertex always exists.
func (c *Config) oldTerminal(r *rng.RNG, ends *weights.EndpointArray, src graph.Vertex, numV int) graph.Vertex {
	const maxRetries = 32
	for attempt := 0; ; attempt++ {
		idx, pref := terminalDraw(r, c.Gamma, ends.Total(), numV)
		w := vertexAt(ends, idx, pref)
		if c.AllowLoops || w != src {
			return w
		}
		if attempt >= maxRetries {
			// Deterministic fallback: uniform over the non-source
			// vertices in range.
			w = graph.Vertex(r.IntRange(1, numV-1))
			if w >= src {
				w++
			}
			return w
		}
	}
}

// vertexAt maps a draw to its vertex: the idx-th recorded endpoint when
// preferential, idx+1 when uniform.
func vertexAt(ends *weights.EndpointArray, idx int, pref bool) graph.Vertex {
	if pref {
		return graph.Vertex(ends.At(idx))
	}
	return graph.Vertex(idx + 1)
}

// coin is r.Bernoulli(p) for a validated p: no draw when p <= 0 or
// p >= 1, else one Float64. Inlined Float64 puts it over the inlining
// budget, so terminalDraw and sourceDraw write it out, saving a call
// per draw.
func coin(r *rng.RNG, p float64) bool {
	return p > 0 && (p >= 1 || r.Float64() < p)
}

// outDegrees samples how many edges a step emits, less one, from its
// weight table, as rng.Discrete.Sample does. A one-weight table
// consumes the Float64 that Sample would draw and returns 0, with no
// search and no table.
type outDegrees struct {
	d *rng.Discrete // nil for a one-weight table
}

// newOutDegrees validates ws (nil means {1}) as rng.NewDiscrete does.
func newOutDegrees(ws []float64, name string) (outDegrees, error) {
	if len(ws) == 0 {
		return outDegrees{}, nil
	}
	d, err := rng.NewDiscrete(ws)
	if err != nil {
		return outDegrees{}, fmt.Errorf("cooperfrieze: invalid %s: %w", name, err)
	}
	if d.Len() == 1 {
		return outDegrees{}, nil
	}
	return outDegrees{d: d}, nil
}

func (o outDegrees) sample(r *rng.RNG) int {
	if o.d == nil {
		r.Float64()
		return 0
	}
	return o.d.Sample(r)
}
