package experiment

import (
	"context"
	"fmt"
	"testing"

	"scalefree/internal/core"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
	"scalefree/internal/search"
)

// runPlan executes a plan's trials serially through one scratch, each
// with the fresh per-trial RNG the engine would hand it.
func runPlan(t *testing.T, plan *Plan) []any {
	t.Helper()
	s := core.NewScratch()
	results := make([]any, len(plan.Trials))
	for i, tr := range plan.Trials {
		res, err := plan.Run(context.Background(), tr, rng.New(tr.Seed), s)
		if err != nil {
			t.Fatalf("%s: %v", tr.Key, err)
		}
		results[i] = res
	}
	return results
}

func moriGen(p float64) func(n int) core.GraphGen {
	return func(n int) core.GraphGen { return core.MoriGen(mori.Config{N: n, M: 1, P: p}) }
}

// TestScalingCell registers a cell behind another trial, runs the
// plan, and collects the cell: its trials carry the keys and seeds of
// the cell's seed scheme, every point carries its bound and dominates
// it, and the fitted exponent is positive.
func TestScalingCell(t *testing.T) {
	b := newPlanBuilder()
	b.add("other", 1, func(context.Context, *rng.RNG) (any, error) { return "not a search outcome", nil })
	sizes := []int{64, 128, 256}
	const seed, reps = 5, 12
	c := addScalingCell(b, "cell", sizes, moriGen(0.5),
		func(n int, _ *rng.RNG) (float64, error) { return core.Theorem1Bound(n, 0.5) },
		core.SearchSpec{Algorithm: search.NewFlood(), Reps: reps, Seed: seed})
	plan := b.build(nil)
	if len(plan.Trials) != 1+len(sizes)*(reps+1) {
		t.Fatalf("%d trials, want 1 + %d", len(plan.Trials), len(sizes)*(reps+1))
	}
	next := 1
	for i, n := range sizes {
		point := rng.DeriveSeed(seed, uint64(1000+i))
		for rep := 0; rep < reps; rep++ {
			tr := plan.Trials[next]
			if want := fmt.Sprintf("cell/n=%d/rep=%d", n, rep); tr.Key != want || tr.Seed != rng.DeriveSeed(point, uint64(rep)) {
				t.Fatalf("trial %d = %s seed %d, want %s seed %d", next, tr.Key, tr.Seed, want, rng.DeriveSeed(point, uint64(rep)))
			}
			next++
		}
		tr := plan.Trials[next]
		if want := fmt.Sprintf("cell/n=%d/bound", n); tr.Key != want || tr.Seed != rng.DeriveSeed(seed, uint64(5000+i)) {
			t.Fatalf("trial %d = %s seed %d, want %s", next, tr.Key, tr.Seed, want)
		}
		next++
	}

	res, last, err := c.collect(runPlan(t, plan))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(sizes) || last.N != sizes[len(sizes)-1] {
		t.Fatalf("%d points, largest n=%d", len(res.Points), last.N)
	}
	for _, pt := range res.Points {
		if pt.Bound <= 0 {
			t.Errorf("missing bound at n=%d", pt.N)
		}
		// Lemma 1: every algorithm's mean must sit above |V|P(E)/2.
		if pt.Measurement.Requests.Mean < pt.Bound {
			t.Errorf("n=%d: flood mean %.1f below theorem bound %.1f",
				pt.N, pt.Measurement.Requests.Mean, pt.Bound)
		}
	}
	if res.Fit.Exponent <= 0 {
		t.Errorf("flood cost should grow with n; exponent %v", res.Fit.Exponent)
	}
	if res.Algorithm != "flood" || len(res.Points[0].Measurement.Samples) != reps {
		t.Errorf("cell metadata wrong: %s, %d samples", res.Algorithm, len(res.Points[0].Measurement.Samples))
	}
}

// TestScalingCellValidation: a malformed cell registers no trial and
// fails its collect, and collect rejects a short or mistyped result
// slice.
func TestScalingCellValidation(t *testing.T) {
	flood := core.SearchSpec{Algorithm: search.NewFlood(), Reps: 2, Seed: 1}
	for name, tc := range map[string]struct {
		sizes []int
		spec  core.SearchSpec
	}{
		"single size":  {[]int{10}, flood},
		"no algorithm": {[]int{10, 20}, core.SearchSpec{Reps: 2}},
		"no reps":      {[]int{10, 20}, core.SearchSpec{Algorithm: search.NewFlood()}},
	} {
		b := newPlanBuilder()
		c := addScalingCell(b, "cell", tc.sizes, moriGen(0.5), nil, tc.spec)
		if len(b.trials) != 0 {
			t.Errorf("%s: registered %d trials", name, len(b.trials))
		}
		if _, _, err := c.collect(nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	b := newPlanBuilder()
	c := addScalingCell(b, "cell", []int{10, 20}, moriGen(0.5), nil, flood)
	if _, _, err := c.collect(make([]any, len(b.trials)-1)); err == nil {
		t.Error("short result slice accepted")
	}
	if _, _, err := c.collect(make([]any, len(b.trials))); err == nil {
		t.Error("mistyped results accepted")
	}
}

// TestAddBattery: the battery's cells take consecutive seed streams,
// keys prefix/algorithm, and the template's fields; a zero template
// Budget censors only the walks, at walkBudgetFactor·n(max), and a
// nonzero one applies to every algorithm.
func TestAddBattery(t *testing.T) {
	cfg := Config{Seed: 9}
	sizes := []int{64, 128}
	algs := search.WeakAlgorithms()
	for _, budget := range []int{0, 17} {
		b := newPlanBuilder()
		cells := addBattery(b, cfg, 40, "bat", algs, sizes, moriGen(0.5), nil,
			core.SearchSpec{Reps: 3, RandomStart: true, Budget: budget})
		if len(cells) != len(algs) || len(b.trials) != len(algs)*len(sizes)*3 {
			t.Fatalf("%d cells and %d trials for %d algorithms", len(cells), len(b.trials), len(algs))
		}
		walks := 0
		for i, c := range cells {
			spec := c.spec
			if c.key != "bat/"+algs[i].Name() || spec.Algorithm != algs[i] || spec.Seed != cfg.seed(40+uint64(i)) ||
				spec.Reps != 3 || !spec.RandomStart {
				t.Errorf("cell %d: key %s, spec %+v", i, c.key, spec)
			}
			want := budget
			if budget == 0 && isWalk(algs[i]) {
				want = walkBudgetFactor * sizes[len(sizes)-1]
				walks++
			}
			if spec.Budget != want {
				t.Errorf("%s: budget %d, want %d", algs[i].Name(), spec.Budget, want)
			}
		}
		if budget == 0 && walks == 0 {
			t.Fatal("the weak battery has no walk to censor")
		}
	}
}
