package search

import (
	"math"
	"strings"
	"testing"

	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

func TestExtraAlgorithmsFindTargets(t *testing.T) {
	tree, err := mori.GenerateTree(rng.New(8), 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Graph()
	extras := []Algorithm{
		NewTwoPhase(),
		NewBiasedWalk(1),
		NewBiasedWalk(0),
		NewBiasedWalk(-1),
		NewMixedGreedy(0),
		NewMixedGreedy(0.5),
		NewMixedGreedy(1),
	}
	for _, a := range extras {
		t.Run(a.Name(), func(t *testing.T) {
			budget := 0
			if strings.HasPrefix(a.Name(), "biased-walk") {
				budget = 200000
			}
			res := runOn(t, a, g, 1, 500, 21, budget)
			if !res.Found {
				t.Fatalf("%s failed on a connected tree", a.Name())
			}
		})
	}
}

func TestTwoPhaseOnStar(t *testing.T) {
	// Start at a leaf: phase one requests the leaf then the hub; the
	// target becomes visible with the hub's answer — 2 requests, like
	// pure degree greedy.
	g := starGraph(40)
	res := runOn(t, NewTwoPhase(), g, 2, 30, 5, 0)
	if res.Requests != 2 {
		t.Errorf("two-phase on star took %d requests, want 2", res.Requests)
	}
}

func TestMixedGreedyEpsilonClamped(t *testing.T) {
	if got := NewMixedGreedy(-1).Name(); got != "mixed-greedy(0.00)" {
		t.Errorf("eps clamp low: %s", got)
	}
	if got := NewMixedGreedy(7).Name(); got != "mixed-greedy(1.00)" {
		t.Errorf("eps clamp high: %s", got)
	}
}

func TestMixedGreedyExtremesMatchPureGreedy(t *testing.T) {
	// eps = 0 is exactly id-greedy; eps = 1 is exactly degree-greedy
	// (modulo identical tie-breaking, which both share).
	tree, err := mori.GenerateTree(rng.New(12), 400, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Graph()
	idOnly := runOn(t, NewMixedGreedy(0), g, 1, 400, 5, 0)
	pureID := runOn(t, NewIDGreedyWeak(), g, 1, 400, 5, 0)
	if idOnly.Requests != pureID.Requests {
		t.Errorf("mixed(0) = %d requests, id-greedy = %d", idOnly.Requests, pureID.Requests)
	}
	degOnly := runOn(t, NewMixedGreedy(1), g, 1, 400, 5, 0)
	pureDeg := runOn(t, NewDegreeGreedyWeak(), g, 1, 400, 5, 0)
	if degOnly.Requests != pureDeg.Requests {
		t.Errorf("mixed(1) = %d requests, degree-greedy = %d", degOnly.Requests, pureDeg.Requests)
	}
}

func TestBiasedWalkZeroBiasMatchesUniformWalkDistribution(t *testing.T) {
	// bias = 0 behaves like the uniform strong walk in expectation;
	// check the two stay within a factor 2 over replications on the
	// same graph.
	tree, err := mori.GenerateTree(rng.New(14), 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Graph()
	var flat, uniform int
	const reps = 30
	for i := uint64(0); i < reps; i++ {
		flat += runOn(t, NewBiasedWalk(0), g, 1, 300, 100+i, 100000).Requests
		uniform += runOn(t, NewRandomWalkStrong(), g, 1, 300, 100+i, 100000).Requests
	}
	lo, hi := float64(uniform)/2, float64(uniform)*2
	if f := float64(flat); f < lo || f > hi {
		t.Errorf("biased-walk(0) total %d vs uniform strong walk %d", flat, uniform)
	}
}

func TestBiasedWalkBudget(t *testing.T) {
	tree, err := mori.GenerateTree(rng.New(16), 1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Graph()
	res := runOn(t, NewBiasedWalk(1), g, 1, 1000, 3, 4)
	if res.Requests > 4 {
		t.Errorf("budget overspent: %d", res.Requests)
	}
}

func TestExtraAlgorithmsModelEnforcement(t *testing.T) {
	g := pathGraph(4)
	weakOracle, err := NewOracle(g, 1, 4, Weak)
	if err != nil {
		t.Fatal(err)
	}
	strongOracle, err := NewOracle(g, 1, 4, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTwoPhase().Search(weakOracle, rng.New(1), 5); err == nil {
		t.Error("two-phase accepted weak oracle")
	}
	if _, err := NewBiasedWalk(1).Search(weakOracle, rng.New(1), 5); err == nil {
		t.Error("biased walk accepted weak oracle")
	}
	if _, err := NewMixedGreedy(0.5).Search(strongOracle, rng.New(1), 5); err == nil {
		t.Error("mixed greedy accepted strong oracle")
	}
}

func TestSampleIndexProportions(t *testing.T) {
	r := rng.New(5)
	counts := [3]int{}
	const draws = 90000
	cum := []float64{1, 3, 6} // running totals of the weights 1, 2, 3
	for i := 0; i < draws; i++ {
		counts[sampleIndex(r, cum)]++
	}
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / draws
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("P(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestSampleIndexMatchesLinearScan pins the binary search to the
// linear scan it replaced: for the same draw it must return the same
// index, including over zero weights, weights that underflow, and a
// total that overflows to +Inf.
func TestSampleIndexMatchesLinearScan(t *testing.T) {
	linear := func(r *rng.RNG, weights []float64) int {
		total := 0.0
		for _, w := range weights {
			total += w
		}
		u := r.Float64() * total
		acc := 0.0
		for i, w := range weights {
			acc += w
			if u < acc {
				return i
			}
		}
		return len(weights) - 1
	}
	check := func(weights []float64, seed uint64) {
		t.Helper()
		cum := make([]float64, len(weights))
		acc := 0.0
		for i, w := range weights {
			acc += w
			cum[i] = acc
		}
		if got, want := sampleIndex(rng.New(seed), cum), linear(rng.New(seed), weights); got != want {
			t.Fatalf("weights %v seed %d: sampleIndex = %d, linear scan = %d", weights, seed, got, want)
		}
	}
	gen := rng.New(9)
	for trial := 0; trial < 5000; trial++ {
		weights := make([]float64, 1+gen.Intn(40))
		for i := range weights {
			switch gen.Intn(4) {
			case 0:
				weights[i] = 0
			case 1:
				weights[i] = powWeight(gen.Intn(1000), -120)
			default:
				weights[i] = powWeight(gen.Intn(1000), 1.5)
			}
		}
		check(weights, gen.Uint64())
	}
	for seed := uint64(0); seed < 20; seed++ {
		check([]float64{0, 0, 0}, seed)
		check([]float64{1, math.Inf(1), 2}, seed)
	}
}

func TestPowWeight(t *testing.T) {
	cases := []struct {
		d    int
		bias float64
		want float64
	}{
		{4, 0, 1}, {4, 1, 4}, {4, -1, 0.25}, {4, 2, 16}, {0, 1, 1}, {3, 0.5, 1.7320508075688772},
	}
	for _, tc := range cases {
		if got := powWeight(tc.d, tc.bias); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("powWeight(%d, %v) = %v, want %v", tc.d, tc.bias, got, tc.want)
		}
	}
}
