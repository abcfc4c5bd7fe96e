package experiment

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"scalefree/internal/core"
	"scalefree/internal/rng"
	"scalefree/internal/search"
	"scalefree/internal/stats"
)

// walkBudgetFactor caps walk-style algorithms at this multiple of n so
// that pathological walks terminate; the found-rate column records how
// often the cap bit. Non-walk algorithms run uncensored (they finish
// within m requests on connected graphs).
const walkBudgetFactor = 50

func isWalk(a search.Algorithm) bool {
	switch a.Name() {
	case "random-walk", "self-avoiding-walk", "random-walk-strong":
		return true
	default:
		return strings.HasPrefix(a.Name(), "biased-walk")
	}
}

// addBattery registers a search battery on b: one scaling cell per
// algorithm of algs, keyed prefix+"/"+name, seeded from cfg's
// consecutive streams first, first+1, …. The template spec sets every
// other field of the cells' specs; a zero Budget caps walk-style
// algorithms at walkBudgetFactor·n(max) and leaves the others
// uncensored.
func addBattery(b *planBuilder, cfg Config, first uint64, prefix string, algs []search.Algorithm,
	sizes []int, genFor func(n int) core.GraphGen,
	boundFor func(n int, r *rng.RNG) (float64, error),
	template core.SearchSpec) []*scalingCell {

	cells := make([]*scalingCell, len(algs))
	for i, alg := range algs {
		spec := template
		spec.Algorithm = alg
		spec.Seed = cfg.seed(first + uint64(i))
		if spec.Budget == 0 && isWalk(alg) {
			spec.Budget = walkBudgetFactor * sizes[len(sizes)-1]
		}
		cells[i] = addScalingCell(b, prefix+"/"+alg.Name(), sizes, genFor, boundFor, spec)
	}
	return cells
}

// scalingCell is one (sizes × replications) sweep of a single
// algorithm/model pairing, registered on a plan as a run of
// consecutive trials [first, end): per size, its spec.Reps search
// trials in replication order, then its bound trial if the cell has
// bounds.
type scalingCell struct {
	key        string
	spec       core.SearchSpec
	sizes      []int
	bound      bool
	first, end int
	err        error // a plan-construction bug, reported by collect
}

// addScalingCell registers one scaling cell on b and owns its seed
// scheme. Size i's trials are
//
//   - key/n=N/rep=R, one per replication, running core.MeasureOne
//     under the point seed DeriveSeed(spec.Seed, 1000+i), which
//     MeasureOne fans out per replication (the trial seed is
//     DeriveSeed(point, R));
//   - key/n=N/bound when boundFor is non-nil, seeded
//     DeriveSeed(spec.Seed, 5000+i): the RNG a Monte-Carlo bound
//     consumes (E3) and an exact one ignores.
//
// Every trial is a pure function of its (seed, size, replication), so
// the cell reproduces bit for bit on any worker count.
func addScalingCell(b *planBuilder, key string, sizes []int,
	genFor func(n int) core.GraphGen,
	boundFor func(n int, r *rng.RNG) (float64, error),
	spec core.SearchSpec) *scalingCell {

	c := &scalingCell{key: key, spec: spec, sizes: sizes, bound: boundFor != nil, first: len(b.trials)}
	switch {
	case len(sizes) < 2:
		c.err = fmt.Errorf("%s: a scaling cell needs at least 2 sizes, got %d", key, len(sizes))
	case spec.Algorithm == nil:
		c.err = fmt.Errorf("%s: no search algorithm", key)
	case spec.Reps < 1:
		c.err = fmt.Errorf("%s: %d replications", key, spec.Reps)
	}
	if c.err != nil {
		// Plan-construction bugs surface at reduce time, with the
		// cell's key attached.
		return c
	}
	for i, n := range sizes {
		point := spec
		point.Seed = rng.DeriveSeed(spec.Seed, uint64(1000+i))
		gen := genFor(n)
		sizeKey := key + "/n=" + strconv.Itoa(n)
		for rep := 0; rep < spec.Reps; rep++ {
			b.add(sizeKey+"/rep="+strconv.Itoa(rep), rng.DeriveSeed(point.Seed, uint64(rep)),
				func(_ context.Context, _ *rng.RNG, s *core.Scratch) (any, error) {
					return core.MeasureOne(gen, point, rep, s)
				})
		}
		if boundFor != nil {
			b.add(sizeKey+"/bound", rng.DeriveSeed(spec.Seed, uint64(5000+i)),
				func(_ context.Context, r *rng.RNG, _ *core.Scratch) (any, error) { return boundFor(n, r) })
		}
	}
	c.end = len(b.trials)
	return c
}

// collect assembles the cell's core.ScalingResult from the plan's
// positional results, replications summarized in order, bounds
// attached and the scaling exponent fitted, and returns it with its
// largest point.
func (c *scalingCell) collect(results []any) (core.ScalingResult, core.ScalingPoint, error) {
	var res core.ScalingResult
	if c.err != nil {
		return res, core.ScalingPoint{}, c.err
	}
	if len(results) < c.end {
		return res, core.ScalingPoint{}, fmt.Errorf("%s: %d results for a plan of at least %d trials", c.key, len(results), c.end)
	}
	res.Algorithm = c.spec.Algorithm.Name()
	ns := make([]float64, len(c.sizes))
	means := make([]float64, len(c.sizes))
	next := c.first
	for i, n := range c.sizes {
		outcomes := make([]core.SearchOutcome, c.spec.Reps)
		for rep := range outcomes {
			o, ok := results[next].(core.SearchOutcome)
			if !ok {
				return res, core.ScalingPoint{}, fmt.Errorf("%s/n=%d/rep=%d: result type %T", c.key, n, rep, results[next])
			}
			outcomes[rep] = o
			next++
		}
		point := core.ScalingPoint{N: n, Measurement: core.NewMeasurement(c.spec, outcomes)}
		if c.bound {
			bound, ok := results[next].(float64)
			if !ok {
				return res, core.ScalingPoint{}, fmt.Errorf("%s/n=%d/bound: result type %T", c.key, n, results[next])
			}
			point.Bound = bound
			next++
		}
		res.Points = append(res.Points, point)
		ns[i], means[i] = float64(n), point.Measurement.Requests.Mean
	}
	fit, err := stats.FitScaling(ns, means)
	if err != nil {
		return res, core.ScalingPoint{}, fmt.Errorf("%s: fitting scaling: %w", c.key, err)
	}
	res.Fit = fit
	return res, res.Points[len(res.Points)-1], nil
}
