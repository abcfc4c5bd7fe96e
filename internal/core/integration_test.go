package core

import (
	"testing"

	"scalefree/internal/ba"
	"scalefree/internal/configmodel"
	"scalefree/internal/cooperfrieze"
	"scalefree/internal/equivalence"
	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
	"scalefree/internal/search"
)

// TestEveryAlgorithmOnEveryModel is the cross-product integration test:
// all algorithms × all connected evolving models, through the shuffled
// oracle, with invariants checked on every run.
func TestEveryAlgorithmOnEveryModel(t *testing.T) {
	models := []struct {
		name string
		gen  GraphGen
	}{
		{"mori-tree", MoriGen(mori.Config{N: 150, M: 1, P: 0.5})},
		{"mori-merged", MoriGen(mori.Config{N: 75, M: 2, P: 0.75})},
		{"mori-uniform", MoriGen(mori.Config{N: 150, M: 1, P: 0})},
		{"cooper-frieze", CooperFriezeGen(cooperfrieze.Config{
			N: 150, Alpha: 0.7, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true})},
		{"barabasi-albert", func(r *rng.RNG, _ *Scratch) (*graph.Graph, error) {
			return ba.Config{N: 150, M: 2}.Generate(r)
		}},
	}
	algorithms := append(search.WeakAlgorithms(), search.StrongAlgorithms()...)
	for _, m := range models {
		for _, alg := range algorithms {
			m, alg := m, alg
			t.Run(m.name+"/"+alg.Name(), func(t *testing.T) {
				t.Parallel()
				meas, err := MeasureSearch(m.gen, SearchSpec{
					Algorithm: alg,
					Reps:      4,
					Seed:      rng.DeriveSeed(7, uint64(len(m.name)+len(alg.Name()))),
					Budget:    500000,
				}, NewScratch())
				if err != nil {
					t.Fatal(err)
				}
				if meas.FoundRate != 1 {
					t.Errorf("found rate %v on a connected graph with huge budget", meas.FoundRate)
				}
				if meas.Requests.Min < 1 {
					t.Errorf("found a non-start target with %v requests", meas.Requests.Min)
				}
			})
		}
	}
}

// TestBudgetNeverExceeded is the harness-level budget property across
// algorithms, models and budgets.
func TestBudgetNeverExceeded(t *testing.T) {
	gen := MoriGen(mori.Config{N: 400, M: 1, P: 0.5})
	s := NewScratch()
	for _, alg := range append(search.WeakAlgorithms(), search.StrongAlgorithms()...) {
		for _, budget := range []int{1, 7, 50} {
			meas, err := MeasureSearch(gen, SearchSpec{
				Algorithm: alg,
				Reps:      3,
				Seed:      11,
				Budget:    budget,
			}, s)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			if int(meas.Requests.Max) > budget {
				t.Errorf("%s exceeded budget %d: max %v", alg.Name(), budget, meas.Requests.Max)
			}
		}
	}
}

// TestMeasuredMeansDominateTheorem1Bound is the headline invariant of
// the reproduction, checked across p and every weak algorithm at small
// scale: E[requests] >= |V|·P(E)/2.
func TestMeasuredMeansDominateTheorem1Bound(t *testing.T) {
	for _, p := range []float64{0, 0.25, 0.5, 1.0} {
		bound, err := Theorem1Bound(512, p)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScratch()
		for _, alg := range search.WeakAlgorithms() {
			meas, err := MeasureSearch(MoriGen(mori.Config{N: 512, M: 1, P: p}), SearchSpec{
				Algorithm: alg,
				Reps:      10,
				Seed:      rng.DeriveSeed(13, uint64(p*100)),
			}, s)
			if err != nil {
				t.Fatalf("p=%v %s: %v", p, alg.Name(), err)
			}
			if meas.Requests.Mean < bound {
				t.Errorf("p=%v: %s mean %.1f below Theorem-1 bound %.1f",
					p, alg.Name(), meas.Requests.Mean, bound)
			}
		}
	}
}

// TestRandomTargetDistinctFromStart checks the random-workload path of
// the harness.
func TestRandomTargetDistinctFromStart(t *testing.T) {
	gen := func(r *rng.RNG, _ *Scratch) (*graph.Graph, error) {
		g, _, err := configmodel.Config{N: 500, Exponent: 2.3, MinDeg: 2}.GenerateGiant(r)
		return g, err
	}
	meas, err := MeasureSearch(gen, SearchSpec{
		Algorithm:       search.NewDegreeGreedyStrong(),
		Reps:            20,
		Seed:            17,
		RandomEndpoints: true,
		Budget:          100000,
	}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	// Distinct start/target on a connected component: never a free find.
	if meas.Requests.Min < 1 {
		t.Errorf("random target coincided with start: min requests %v", meas.Requests.Min)
	}
	if meas.FoundRate != 1 {
		t.Errorf("found rate %v", meas.FoundRate)
	}
}

// TestBoundConsistencyAcrossPackages pins core.Theorem1Bound to the
// equivalence-package primitives it wraps.
func TestBoundConsistencyAcrossPackages(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		for _, p := range []float64{0.25, 0.75} {
			got, err := Theorem1Bound(n, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := equivalence.Lemma1Bound(n, p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("n=%d p=%v: core %v != equivalence %v", n, p, got, want)
			}
		}
	}
}
