package core

import (
	"fmt"

	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

// SweepTrial is one unit of a decomposed scaling sweep: a key suffix
// (the caller prepends its cell label), the derived seed, and the
// closure to execute. Run's RNG argument drives Monte-Carlo bound
// trials; search trials derive their own streams via MeasureOne and
// ignore it. The scratch argument is the executing worker's reusable
// buffer set (never nil) — it never affects the result value.
type SweepTrial struct {
	Key  string
	Seed uint64
	Run  func(r *rng.RNG, s *Scratch) (any, error)
}

// ScalingSweep decomposes one scaling measurement — a full
// (sizes × replications) sweep of a single algorithm/model pairing,
// plus optional per-size bounds — into independent trials, and owns,
// together with MeasureOne, the seed-derivation scheme:
//
//   - point seed   = DeriveSeed(spec.Seed, 1000+sizeIndex), with
//     replication streams fanned out by MeasureOne;
//   - bound seed   = DeriveSeed(spec.Seed, 5000+sizeIndex), seeding the
//     RNG handed to Monte-Carlo bounds (exact bounds ignore it).
//
// Every trial is a pure function of its (seed, size, replication), so
// the sweep reproduces bit for bit on any worker count.
type ScalingSweep struct {
	sizes     []int
	spec      SearchSpec
	trials    []SweepTrial
	searchIdx [][]int // [size][rep] -> index into trials
	boundIdx  []int   // [size] -> index into trials, or -1
}

// NewScalingSweep builds the trial decomposition. boundFor may be nil.
func NewScalingSweep(sizes []int, genFor func(n int) GraphGen, boundFor func(n int, r *rng.RNG) (float64, error), spec SearchSpec) (*ScalingSweep, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("core: scaling sweep needs at least 2 sizes, got %d", len(sizes))
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	s := &ScalingSweep{
		sizes:     sizes,
		spec:      spec,
		searchIdx: make([][]int, len(sizes)),
		boundIdx:  make([]int, len(sizes)),
	}
	add := func(key string, seed uint64, run func(r *rng.RNG, sc *Scratch) (any, error)) int {
		s.trials = append(s.trials, SweepTrial{Key: key, Seed: seed, Run: run})
		return len(s.trials) - 1
	}
	for si, n := range sizes {
		pointSpec := spec
		pointSpec.Seed = rng.DeriveSeed(spec.Seed, uint64(1000+si))
		gen := genFor(n)
		s.searchIdx[si] = make([]int, spec.Reps)
		for rep := 0; rep < spec.Reps; rep++ {
			s.searchIdx[si][rep] = add(
				fmt.Sprintf("n=%d/rep=%d", n, rep),
				rng.DeriveSeed(pointSpec.Seed, uint64(rep)),
				func(_ *rng.RNG, sc *Scratch) (any, error) { return MeasureOne(gen, pointSpec, rep, sc) })
		}
		s.boundIdx[si] = -1
		if boundFor != nil {
			s.boundIdx[si] = add(
				fmt.Sprintf("n=%d/bound", n),
				rng.DeriveSeed(spec.Seed, uint64(5000+si)),
				func(r *rng.RNG, _ *Scratch) (any, error) { return boundFor(n, r) })
		}
	}
	return s, nil
}

// Trials returns the decomposition in plan order; Collect expects its
// results positionally aligned with this slice.
func (s *ScalingSweep) Trials() []SweepTrial { return s.trials }

// Collect assembles the positional trial results into the
// ScalingResult: replications summarized in order, bounds attached,
// scaling exponent fitted — all deterministic given the result slice.
func (s *ScalingSweep) Collect(results []any) (ScalingResult, error) {
	if len(results) != len(s.trials) {
		return ScalingResult{}, fmt.Errorf("core: sweep got %d results for %d trials", len(results), len(s.trials))
	}
	out := ScalingResult{Algorithm: s.spec.Algorithm.Name()}
	var ns, means []float64
	for si, n := range s.sizes {
		outcomes := make([]SearchOutcome, s.spec.Reps)
		for rep, idx := range s.searchIdx[si] {
			o, ok := results[idx].(SearchOutcome)
			if !ok {
				return ScalingResult{}, fmt.Errorf("core: sweep n=%d rep=%d: result type %T", n, rep, results[idx])
			}
			outcomes[rep] = o
		}
		point := ScalingPoint{N: n, Measurement: NewMeasurement(s.spec, outcomes)}
		if bi := s.boundIdx[si]; bi >= 0 {
			bv, ok := results[bi].(float64)
			if !ok {
				return ScalingResult{}, fmt.Errorf("core: sweep n=%d bound: result type %T", n, results[bi])
			}
			point.Bound = bv
		}
		out.Points = append(out.Points, point)
		ns = append(ns, float64(n))
		means = append(means, point.Measurement.Requests.Mean)
	}
	fit, err := stats.FitScaling(ns, means)
	if err != nil {
		return ScalingResult{}, fmt.Errorf("core: fitting scaling: %w", err)
	}
	out.Fit = fit
	return out, nil
}
