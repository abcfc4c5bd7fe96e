// Package experiment is the harness that regenerates every quantitative
// claim of the paper (and of the related work it leans on) as a table:
// experiments E1–E13 of DESIGN.md, each with its workload generator,
// parameter sweep, baselines, and a renderer for the rows reported in
// EXPERIMENTS.md.
//
// # The Trial / Reduce contract
//
// Every experiment declares its workload as a Plan: a flat list of
// independent engine.Trials (each identifying a model, size,
// replication index, and derived seed), a pure Run function mapping one
// trial to its result, and a deterministic Reduce step that assembles
// the positional result slice into Tables. The engine executes the
// trials on a bounded worker pool (see internal/engine);
// because Run is a pure function of (Trial, RNG-from-Trial.Seed) and
// Reduce reads results by index, rendered output is bit-identical for
// every worker count, including -workers 1.
//
// # Adding a new experiment
//
// Write a PlanEn(cfg Config) (*Plan, error) constructor: create a
// planBuilder, append one trial per unit of independent work with
// builder.add (deriving each trial's seed from cfg.seed so experiments
// stay independent), capture the returned indices, and finish with
// builder.build(reduce) where reduce formats the tables from
// results-by-index. A trial draws only from the RNG and the worker's
// core.Scratch it is handed: graphs come from the scratch's generator
// buffers, and a generator's no-scratch form is for callers that keep
// the graph. A search battery, every algorithm of a list swept
// over (sizes × replications), goes through addBattery: it registers
// one addScalingCell per algorithm, and each cell registers its trials
// on the builder under the seed scheme addScalingCell owns and collects
// them back into a core.ScalingResult. Then register the constructor in
// Registry with the next ID. Rules: never touch shared mutable state
// inside a trial (shared read-only state built at plan time is fine),
// and never let the reduce's output depend on anything but the result
// values and plan order.
package experiment

import (
	"context"
	"fmt"
	"sort"

	"scalefree/internal/core"
	"scalefree/internal/engine"
	"scalefree/internal/rng"
)

// Config controls the execution scale of an experiment run.
type Config struct {
	// Seed derives all experiment randomness.
	Seed uint64
	// Scale multiplies workload sizes and replication counts. 1.0 runs
	// the full EXPERIMENTS.md workload; tests and benches use smaller
	// values. Values <= 0 default to 1. NaN, infinities and values
	// from MaxScale on name no workload; cmd/experiments rejects them.
	Scale float64
}

// MaxScale bounds Config.Scale from above: E5 and E6 plan
// 32,768·Scale vertices, and vertex ids are int32, so from 2^16 on the
// largest graph no longer fits.
const MaxScale = 1 << 16

// scaleInt scales n, keeping at least min.
func (c Config) scaleInt(n, min int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n) * s)
	if v < min {
		return min
	}
	return v
}

// sizes returns a geometric size sweep {base, base·2, ...} of count
// points, scaled.
func (c Config) sizes(base, count int) []int {
	out := make([]int, count)
	n := c.scaleInt(base, 64)
	for i := range out {
		out[i] = n
		n *= 2
	}
	return out
}

// seed derives a named sub-seed so experiments stay independent.
func (c Config) seed(stream uint64) uint64 {
	return rng.DeriveSeed(c.Seed, stream)
}

// canonical renders the Config for plan fingerprinting. Trial keys and
// seeds alone do not pin the workload — plans capture Config-derived
// tunables (Monte-Carlo replication counts, query budgets) inside
// their closures — so the full canonical Config participates in every
// fingerprint, and artifacts from different seeds or scales can never
// be confused.
func (c Config) canonical() string {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	return fmt.Sprintf("seed=%d/scale=%g", c.Seed, s)
}

// Plan is the trial decomposition of one experiment at one Config:
// what to run (Trials + Run) and how to assemble the output (Reduce).
type Plan struct {
	// Trials lists the independent units of work, in plan order.
	Trials []engine.Trial
	// Run executes one trial. It must be a pure function of (t, r) —
	// and safe for concurrent invocation across trials. The scratch is
	// the executing worker's reusable buffer set (per-worker state from
	// engine.RunScratch) and is never nil; it must never affect the
	// result value.
	Run func(ctx context.Context, t engine.Trial, r *rng.RNG, s *core.Scratch) (any, error)
	// Reduce assembles the positional trial results into tables. It
	// must be deterministic and order-independent: results[i] is the
	// output of Trials[i] regardless of completion order.
	Reduce func(results []any) ([]Table, error)
}

// planBuilder accumulates trials and their closures in lockstep, so
// experiment constructors can register work and remember where each
// result will land.
type planBuilder struct {
	trials []engine.Trial
	runs   []func(ctx context.Context, r *rng.RNG, s *core.Scratch) (any, error)
}

func newPlanBuilder() *planBuilder { return &planBuilder{} }

// add registers one trial and returns its index into the result
// slice. run draws only from its RNG, seeded from seed, and its
// worker's scratch, whose buffers it may reuse.
func (b *planBuilder) add(key string, seed uint64, run func(ctx context.Context, r *rng.RNG, s *core.Scratch) (any, error)) int {
	idx := len(b.trials)
	b.trials = append(b.trials, engine.Trial{Index: idx, Key: key, Seed: seed})
	b.runs = append(b.runs, run)
	return idx
}

// build finalizes the plan with the given reduce step.
func (b *planBuilder) build(reduce func(results []any) ([]Table, error)) *Plan {
	return &Plan{
		Trials: b.trials,
		Run: func(ctx context.Context, t engine.Trial, r *rng.RNG, s *core.Scratch) (any, error) {
			return b.runs[t.Index](ctx, r, s)
		},
		Reduce: reduce,
	}
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	ID    string
	Title string
	// Plan declares the experiment's workload at a given Config.
	Plan func(cfg Config) (*Plan, error)
}

// Registry returns all experiments in ID order.
func Registry() []Experiment {
	exps := []Experiment{
		{ID: "E1", Title: "Theorem 1 (weak model): Ω(√n) search cost in Móri graphs", Plan: PlanE1},
		{ID: "E2", Title: "Theorem 1 (strong model): Ω(n^(1/2-p)) for p < 1/2", Plan: PlanE2},
		{ID: "E3", Title: "Theorem 2: Ω(√n) search cost in Cooper–Frieze graphs (weak model)", Plan: PlanE3},
		{ID: "E4", Title: "Lemmas 2-3: equivalence event probability, exact vs MC vs e^{-(1-p)}", Plan: PlanE4},
		{ID: "E5", Title: "Móri max degree ~ n^p (vs Barabási–Albert n^(1/2))", Plan: PlanE5},
		{ID: "E6", Title: "Degree distributions: power-law exponents per model", Plan: PlanE6},
		{ID: "E7", Title: "Logarithmic distances: mean distance and diameter vs log n", Plan: PlanE7},
		{ID: "E8", Title: "Adamic et al.: high-degree search vs random walk on power-law graphs", Plan: PlanE8},
		{ID: "E9", Title: "Kleinberg navigability: greedy routing r-sweep vs Móri id-greedy", Plan: PlanE9},
		{ID: "E10", Title: "Sarshar et al.: percolation search replication/broadcast sweep", Plan: PlanE10},
		{ID: "E11", Title: "Extension: non-searchability of uniform attachment (p = 0)", Plan: PlanE11},
		{ID: "E12", Title: "Extension: non-searchability of the Bianconi–Barabási fitness model", Plan: PlanE12},
		{ID: "E13", Title: "Extension: non-searchability of geometric preferential attachment", Plan: PlanE13},
	}
	sort.Slice(exps, func(i, j int) bool {
		// Numeric ID ordering: E2 before E10.
		return idNum(exps[i].ID) < idNum(exps[j].ID)
	})
	return exps
}

func idNum(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
