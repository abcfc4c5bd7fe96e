package experiment

import (
	"context"

	"scalefree/internal/core"
	"scalefree/internal/rng"
)

// cellCollector reassembles one scaling cell — a full
// (sizes × replications) sweep of a single algorithm/model pairing —
// from the flat trial-result slice of the plan it was added to.
type cellCollector func(results []any) (core.ScalingResult, error)

// addScalingCell registers the trials of one scaling cell on the
// builder: one trial per (size, replication) running core.MeasureOne,
// plus one trial per size evaluating boundFor when it is non-nil. The
// decomposition and seed scheme are core.ScalingSweep's, so every
// trial, search and Monte-Carlo bound alike (an RNG-consuming
// boundFor, as in E3), is a pure function of its (seed, size,
// replication) and the cell reproduces bit for bit on any worker
// count.
//
// The returned collector assembles the cell's core.ScalingResult from
// the plan's positional results.
func addScalingCell(b *planBuilder, key string, sizes []int,
	genFor func(n int) core.GraphGen,
	boundFor func(n int, r *rng.RNG) (float64, error),
	spec core.SearchSpec) cellCollector {

	sweep, err := core.NewScalingSweep(sizes, genFor, boundFor, spec)
	if err != nil {
		// Plan-construction bugs (too few sizes, invalid spec) surface
		// at reduce time with the cell's context attached.
		return func([]any) (core.ScalingResult, error) { return core.ScalingResult{}, err }
	}
	st := sweep.Trials()
	idx := make([]int, len(st))
	for i, t := range st {
		idx[i] = b.addScratch(key+"/"+t.Key, t.Seed,
			func(_ context.Context, r *rng.RNG, s *core.Scratch) (any, error) { return t.Run(r, s) })
	}
	return func(results []any) (core.ScalingResult, error) {
		sub := make([]any, len(idx))
		for i, j := range idx {
			sub[i] = results[j]
		}
		return sweep.Collect(sub)
	}
}

// exactBound adapts an RNG-free theorem bound to the addScalingCell
// bound signature.
func exactBound(f func(n int) (float64, error)) func(n int, r *rng.RNG) (float64, error) {
	return func(n int, _ *rng.RNG) (float64, error) { return f(n) }
}
