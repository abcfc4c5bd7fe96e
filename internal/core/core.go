// Package core is the public face of the reproduction: it ties the
// graph models, the local-knowledge search framework, and the
// vertex-equivalence machinery together into the measurements and
// theorem-level bounds that the paper states.
//
// The central entry points are:
//
//   - MeasureOne / MeasureSearch — one replication, or a replicated
//     expected-request measurement, of any search algorithm over
//     random graphs, from vertex 1 to the youngest vertex n or, with
//     SearchSpec.RandomEndpoints, from a uniform start to a distinct
//     uniform target; experiment plans run each replication of a size
//     sweep as its own engine trial and assemble the replications with
//     NewMeasurement into a ScalingResult;
//   - Theorem1Bound / StrongModelExponent — the paper's lower bounds,
//     against which the measurements are compared (the Cooper–Frieze
//     bound is equivalence.Lemma1BoundCF's Monte-Carlo estimate).
package core

import (
	"fmt"

	"scalefree/internal/ba"
	"scalefree/internal/buf"
	"scalefree/internal/cooperfrieze"
	"scalefree/internal/equivalence"
	"scalefree/internal/graph"
	"scalefree/internal/model"
	"scalefree/internal/mori"
	"scalefree/internal/obs/trace"
	"scalefree/internal/rng"
	"scalefree/internal/search"
	"scalefree/internal/stats"
)

// Scratch bundles the reusable buffers of one measurement worker: the
// registry-wide model-generation scratches, the search oracle's
// scratch, the per-replication RNGs, and BFS buffers for distance
// measurements. The zero value is ready to use. One scratch belongs to
// one worker goroutine; the engine's RunScratch hands each worker its
// own. A trial draws only from its RNG and this scratch.
//
// Scratch is memory reuse only — every measurement is still a pure
// function of (spec, rep), so a fresh scratch and one reused across
// any earlier trials produce bit-identical outcomes.
type Scratch struct {
	// Model holds the per-family generation buffers of every
	// registered graph model (internal/model), so one worker serves
	// any workload's trials without reallocating.
	Model  model.Scratch
	Search search.Scratch

	// Dist and Queue are BFS buffers for distance-based workloads
	// (graph.BFSInto conventions: Dist needs length n+1).
	Dist  []int32
	Queue []graph.Vertex

	// Degs is the reused degree-sample buffer behind DegreesOf, and
	// any trial's that counts degrees itself.
	Degs []int

	genRNG, searchRNG rng.RNG

	// tw is the attached trace writer (nil when untraced); phase spans
	// in MeasureOne record into it. See AttachTrace.
	tw *trace.Writer
}

// AttachTrace implements trace.Attacher: the engine hands each worker
// goroutine's trace writer to its scratch, so trial phases
// (generate/freeze/search) record into the worker's lane. A nil writer
// detaches.
func (s *Scratch) AttachTrace(w *trace.Writer) { s.tw = w }

// NewScratch returns an empty scratch; buffers grow on first use and
// are reused afterwards. It is the engine-facing scratch factory.
func NewScratch() *Scratch { return &Scratch{} }

// BFSBuffers returns the scratch's BFS buffers sized for an n-vertex
// graph (dist length n+1, queue capacity n), growing them on demand.
// BFSInto overwrites dist fully, so plain Grow suffices.
func (s *Scratch) BFSBuffers(n int) ([]int32, []graph.Vertex) {
	s.Dist = buf.Grow(s.Dist, n+1)
	s.Queue = buf.Grow(s.Queue, n)[:0]
	return s.Dist, s.Queue
}

// DegreesOf returns the undirected degree sample of g (vertices 1..n,
// the slice Degrees()[1:] would give) in the scratch's reused buffer.
// The result is only valid until the scratch's next DegreesOf call.
func (s *Scratch) DegreesOf(g *graph.Graph) []int {
	s.Degs = g.AppendDegrees(s.Degs[:0])
	return s.Degs
}

// GraphGen produces a fresh random graph for one replication. The
// scratch is never nil: the generator may reuse its buffers, so the
// returned graph is only valid until the scratch's next use.
type GraphGen func(r *rng.RNG, s *Scratch) (*graph.Graph, error)

// MoriGen adapts a Móri configuration to a GraphGen.
func MoriGen(cfg mori.Config) GraphGen {
	return func(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
		return cfg.GenerateScratch(r, &s.Model.Mori)
	}
}

// BAGen adapts a Barabási–Albert configuration to a GraphGen.
func BAGen(cfg ba.Config) GraphGen {
	return func(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
		return cfg.GenerateScratch(r, &s.Model.BA)
	}
}

// CooperFriezeGen adapts a Cooper–Frieze configuration to a GraphGen.
func CooperFriezeGen(cfg cooperfrieze.Config) GraphGen {
	return func(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
		res, err := cfg.GenerateScratch(r, &s.Model.CF)
		if err != nil {
			return nil, err
		}
		return res.Graph, nil
	}
}

// ModelGen adapts any registry model instance (internal/model) to a
// GraphGen: the measurement paths accept every registered model
// through the worker scratch's model buffers.
func ModelGen(m model.Model) GraphGen {
	return func(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
		return m.Generate(r, &s.Model)
	}
}

// SearchSpec describes one search measurement. Each replication
// searches from vertex 1, the oldest, for vertex n, the youngest: the
// paper's hard target.
type SearchSpec struct {
	Algorithm search.Algorithm
	// RandomEndpoints instead draws a uniform start vertex and then a
	// uniform target distinct from it, per replication. Used by
	// workloads without an age structure, e.g. configuration-model
	// graphs.
	RandomEndpoints bool
	// Budget caps requests per run (0 = unlimited). Runs that exhaust
	// the budget contribute Budget requests to the mean (censoring
	// makes the measured mean a *lower* bound on the true expectation,
	// which is the safe direction when validating lower bounds).
	Budget int
	// Reps is the number of independent graph+search replications.
	Reps int
	// Seed derives all per-replication randomness.
	Seed uint64
}

func (s SearchSpec) validate() error {
	if s.Algorithm == nil {
		return fmt.Errorf("core: SearchSpec.Algorithm is nil")
	}
	if s.Reps < 1 {
		return fmt.Errorf("core: SearchSpec.Reps = %d < 1", s.Reps)
	}
	return nil
}

// Measurement is the outcome of a replicated search measurement.
type Measurement struct {
	Algorithm string
	Knowledge search.Knowledge
	Requests  stats.Summary // over per-run request counts (censored at Budget)
	FoundRate float64
	// Samples holds the per-replication request counts, for downstream
	// significance tests (e.g. Welch comparisons between algorithms).
	Samples []float64
}

// SearchOutcome is the result of one search replication.
type SearchOutcome struct {
	Requests float64
	Found    bool
}

// MeasureOne runs replication rep of spec through a worker's reusable
// scratch s (never nil): it draws a fresh graph from gen and runs the
// algorithm once. The outcome is a pure function of (spec, rep) —
// graph generation, the search, and the oracle shuffle consume the
// disjoint streams 3·rep, 3·rep+1, 3·rep+2 of spec.Seed, so no stream
// is ever reused across replications or roles — and replications can
// execute in any order, on any goroutine, and still reproduce the
// serial measurement bit for bit. The graph, the oracle tables, and
// the per-replication RNGs all come from s, so repeated same-size
// replications allocate nothing.
func MeasureOne(gen GraphGen, spec SearchSpec, rep int, s *Scratch) (SearchOutcome, error) {
	if spec.Algorithm == nil {
		return SearchOutcome{}, fmt.Errorf("core: SearchSpec.Algorithm is nil")
	}
	gr, sr, tw := &s.genRNG, &s.searchRNG, s.tw
	gr.Reseed(rng.DeriveSeed(spec.Seed, uint64(3*rep)))
	sr.Reseed(rng.DeriveSeed(spec.Seed, uint64(3*rep+1)))
	tw.Begin("generate", "phase")
	g, err := gen(gr, s)
	tw.End()
	if err != nil {
		return SearchOutcome{}, fmt.Errorf("core: generating graph for rep %d: %w", rep, err)
	}
	start, target := graph.Vertex(1), graph.Vertex(g.NumVertices())
	if spec.RandomEndpoints {
		n := g.NumVertices()
		if n < 2 {
			return SearchOutcome{}, fmt.Errorf("core: rep %d: graph too small for distinct random endpoints", rep)
		}
		start = graph.Vertex(sr.IntRange(1, n))
		target = graph.Vertex(sr.IntRange(1, n-1))
		if target >= start {
			target++
		}
	}
	// The shuffled oracle censors slot order so identities leak only
	// through the answers the paper's model defines.
	tw.Begin("freeze", "phase")
	o, err := search.NewOracleShuffledScratch(g, start, target, spec.Algorithm.Knowledge(),
		rng.DeriveSeed(spec.Seed, uint64(3*rep+2)), &s.Search)
	tw.End()
	if err != nil {
		return SearchOutcome{}, fmt.Errorf("core: rep %d: %w", rep, err)
	}
	tw.Begin("search", "phase")
	res, err := spec.Algorithm.Search(o, sr, spec.Budget)
	tw.End()
	if err != nil {
		return SearchOutcome{}, fmt.Errorf("core: rep %d: %w", rep, err)
	}
	return SearchOutcome{Requests: float64(res.Requests), Found: res.Found}, nil
}

// NewMeasurement assembles per-replication outcomes (in replication
// order) into a Measurement. It is the deterministic reduce step shared
// by MeasureSearch and plans that run replications as separate trials.
func NewMeasurement(spec SearchSpec, outcomes []SearchOutcome) Measurement {
	requests := make([]float64, len(outcomes))
	found := 0
	for i, o := range outcomes {
		requests[i] = o.Requests
		if o.Found {
			found++
		}
	}
	return Measurement{
		Algorithm: spec.Algorithm.Name(),
		Knowledge: spec.Algorithm.Knowledge(),
		Requests:  stats.Summarize(requests),
		FoundRate: float64(found) / float64(len(outcomes)),
		Samples:   requests,
	}
}

// MeasureSearch runs spec.Reps independent replications serially,
// reusing the worker scratch s (never nil) across them; see MeasureOne
// for the per-replication contract.
func MeasureSearch(gen GraphGen, spec SearchSpec, s *Scratch) (Measurement, error) {
	if err := spec.validate(); err != nil {
		return Measurement{}, err
	}
	outcomes := make([]SearchOutcome, spec.Reps)
	for rep := range outcomes {
		o, err := MeasureOne(gen, spec, rep, s)
		if err != nil {
			return Measurement{}, err
		}
		outcomes[rep] = o
	}
	return NewMeasurement(spec, outcomes), nil
}

// ScalingPoint is one size of a scaling sweep.
type ScalingPoint struct {
	N           int
	Measurement Measurement
	Bound       float64 // theorem lower bound at this size (0 if none)
}

// ScalingResult is a full sweep plus the fitted exponent of
// E[requests] ~ c·n^e.
type ScalingResult struct {
	Algorithm string
	Points    []ScalingPoint
	Fit       stats.ScalingFit
}

// Theorem1Bound returns the paper's Theorem-1 lower bound on the
// expected number of weak-model requests to find vertex n in the Móri
// model with parameter p: |V|·P(E_{a,b})/2 with the canonical window
// and the exact event probability. The bound is Ω(√n) because
// P(E) >= e^{-(1-p)} (Lemma 3).
func Theorem1Bound(n int, p float64) (float64, error) {
	return equivalence.Lemma1Bound(n, p)
}

// StrongModelExponent returns the exponent of the paper's Theorem-1
// strong-model bound Ω(n^{1/2-p-ε}), i.e. max(0, 1/2 - p). It is
// non-trivial only for p < 1/2, the regime where the Móri maximum
// degree n^p stays below the √n equivalence-set size.
func StrongModelExponent(p float64) float64 {
	if e := 0.5 - p; e > 0 {
		return e
	}
	return 0
}

// AdamicGreedyExponent returns 2(1 - 2/k), the Adamic et al. scaling
// exponent of high-degree search on power-law graphs with exponent k,
// and AdamicWalkExponent returns 3(1 - 2/k) for the random walk. Both
// require 2 < k < 3 to be meaningful.
func AdamicGreedyExponent(k float64) float64 { return 2 * (1 - 2/k) }

// AdamicWalkExponent returns the Adamic et al. random-walk exponent;
// see AdamicGreedyExponent.
func AdamicWalkExponent(k float64) float64 { return 3 * (1 - 2/k) }
