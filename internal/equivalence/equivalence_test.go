package equivalence

import (
	"fmt"
	"math"
	"testing"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

func TestCheckEvent(t *testing.T) {
	// Tree: 2→1, 3→1, 4→2, 5→4. Window (2, 4]: fathers of 3, 4 are
	// 1, 2 — both <= 2, so E holds. Window (3, 5]: father of 5 is 4 > 3.
	tree := &mori.Tree{P: 0.5, Fathers: []graph.Vertex{0, 0, 1, 1, 2, 4}}
	ok, err := CheckEvent(tree, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("E_{2,4} should hold")
	}
	ok, err = CheckEvent(tree, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("E_{3,5} should fail (father of 5 is 4)")
	}
}

func TestCheckEventValidation(t *testing.T) {
	tree := &mori.Tree{P: 0.5, Fathers: []graph.Vertex{0, 0, 1}}
	if _, err := CheckEvent(tree, 0, 1); err == nil {
		t.Error("a = 0 accepted")
	}
	if _, err := CheckEvent(tree, 2, 1); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := CheckEvent(tree, 1, 5); err == nil {
		t.Error("window past tree size accepted")
	}
}

func TestExactEventProbAgainstEnumeration(t *testing.T) {
	// Brute-force P(E_{a,b}) by enumerating all trees of size b and
	// summing probabilities of those satisfying the event; compare with
	// the product formula.
	for _, tc := range []struct {
		p    float64
		a, b int
	}{
		{0.5, 2, 5}, {0.5, 3, 6}, {0.3, 2, 6}, {1.0, 3, 7}, {0.8, 1, 5},
	} {
		want := 0.0
		err := mori.EnumerateTrees(tc.b, func(fathers []graph.Vertex) {
			tree := &mori.Tree{P: tc.p, Fathers: fathers}
			ok, err := CheckEvent(tree, tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				prob, err := mori.TreeProb(fathers, tc.p)
				if err != nil {
					t.Fatal(err)
				}
				want += prob
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExactEventProb(tc.p, tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("p=%v window (%d,%d]: formula %v, enumeration %v", tc.p, tc.a, tc.b, got, want)
		}
	}
}

func TestExactEventProbMatchesMonteCarlo(t *testing.T) {
	p := 0.5
	a, b := 50, 57 // window of size 7 = isqrt(49)
	exact, err := ExactEventProb(p, a, b)
	if err != nil {
		t.Fatal(err)
	}
	est, se, err := MonteCarloEventProb(rng.New(31), p, a, b, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > 4*se+0.01 {
		t.Errorf("MC estimate %v ± %v vs exact %v", est, se, exact)
	}
}

func TestLemma3BoundHolds(t *testing.T) {
	// For the canonical window b = a + ⌊√(a-1)⌋, the exact probability
	// must sit above e^{-(1-p)} for every p and a — Lemma 3.
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		floor := Lemma3Bound(p)
		for _, a := range []int{2, 5, 10, 100, 1000, 100000} {
			b := a + isqrt(a-1)
			prob, err := ExactEventProb(p, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if prob < floor-1e-12 {
				t.Errorf("p=%v a=%d: P(E) = %v below Lemma-3 floor %v", p, a, prob, floor)
			}
		}
	}
	if Lemma3Bound(1) != 1 {
		t.Error("Lemma3Bound(1) should be 1 (pure preferential)")
	}
}

func TestWindow(t *testing.T) {
	a, b, err := Window(101)
	if err != nil {
		t.Fatal(err)
	}
	if a != 100 || b != 100+isqrt(99) {
		t.Errorf("Window(101) = (%d, %d)", a, b)
	}
	if _, _, err := Window(2); err == nil {
		t.Error("Window(2) accepted")
	}
}

func TestWindowEndingAt(t *testing.T) {
	a, err := WindowEndingAt(100)
	if err != nil {
		t.Fatal(err)
	}
	if a != 100-isqrt(99) {
		t.Errorf("WindowEndingAt(100) = %d", a)
	}
	if _, err := WindowEndingAt(2); err == nil {
		t.Error("WindowEndingAt(2) accepted")
	}
}

func TestIsqrt(t *testing.T) {
	for x := 0; x <= 10000; x++ {
		r := isqrt(x)
		if r*r > x || (r+1)*(r+1) <= x {
			t.Fatalf("isqrt(%d) = %d", x, r)
		}
	}
	if isqrt(-5) != 0 {
		t.Error("isqrt of negative should be 0")
	}
}

func TestLemma1BoundScalesAsSqrtN(t *testing.T) {
	// |V|·P(E)/2 with |V| = Θ(√n) and P(E) >= e^{-(1-p)} must grow like
	// √n: check the ratio bound(4n)/bound(n) ≈ 2.
	p := 0.5
	b1, err := Lemma1Bound(10000, p)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Lemma1Bound(40000, p)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := b2 / b1; math.Abs(ratio-2) > 0.05 {
		t.Errorf("bound(40000)/bound(10000) = %v, want ≈2", ratio)
	}
	// And the bound itself is at least e^{-(1-p)}·√n/2 up to the floor
	// of the window size.
	if b1 < Lemma3Bound(p)*float64(isqrt(9998))/2-1e-9 {
		t.Errorf("Lemma1Bound(10000) = %v below its analytic floor", b1)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	for _, tc := range []struct {
		name       string
		p          float64
		a, b, reps int
	}{
		{"zero reps", 0.5, 5, 8, 0},
		{"bad window", 0.5, 0, 8, 10},
		{"p = NaN", math.NaN(), 5, 8, 10},
		{"p < 0", -0.1, 5, 8, 10},
		{"p > 1", 1.5, 5, 8, 10},
		{"tree of one vertex", 0.5, 1, 1, 10},
	} {
		if _, _, err := MonteCarloEventProb(rng.New(1), tc.p, tc.a, tc.b, tc.reps); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestFathersAtMostMatchesCheckEvent pins the draw-only pass behind
// MonteCarloEventProb to its reference, draw for draw: on identically
// seeded generators, mori.FathersAtMost must give CheckEvent's verdict
// on GenerateTree's tree and leave the generator in the same state.
func TestFathersAtMostMatchesCheckEvent(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := uint64(0); seed < 64; seed++ {
		for _, size := range []int{2, 3, 4, 5, 17, 270, 1054} {
			for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
				// a = 1, 2 and size-1 are the windows where the
				// coin-free prefix covers nothing, one vertex, or the
				// whole tree.
				for _, a := range []int{1, 2, (size + 1) / 2, size - isqrt(size-1), size - 1, size} {
					ref, pass := rng.New(seed), rng.New(seed)
					tree, err := mori.GenerateTree(ref, size, p)
					if err != nil {
						t.Fatal(err)
					}
					want, err := CheckEvent(tree, a, size)
					if err != nil {
						t.Fatal(err)
					}
					got, err := mori.FathersAtMost(pass, size, p, a)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed %d size %d p %v a %d: pass says %v, CheckEvent says %v",
							seed, size, p, a, got, want)
					}
					if x, y := pass.Uint64(), ref.Uint64(); x != y {
						t.Fatalf("seed %d size %d p %v a %d: streams diverge after the draw (%#x vs %#x)",
							seed, size, p, a, x, y)
					}
					verdicts[got]++
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: both outcomes must be exercised", verdicts)
	}
}

// monteCarloTreeReference estimates P(E_{a,b}) the direct way, the
// reference MonteCarloEventProb must match: build every tree, then
// check the event on it.
func monteCarloTreeReference(r *rng.RNG, p float64, a, b, reps int) (estimate, stderr float64, err error) {
	hits := 0
	for i := 0; i < reps; i++ {
		t, err := mori.GenerateTree(r, b, p)
		if err != nil {
			return 0, 0, err
		}
		ok, err := CheckEvent(t, a, b)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			hits++
		}
	}
	ph := float64(hits) / float64(reps)
	return ph, math.Sqrt(ph * (1 - ph) / float64(reps)), nil
}

// monteCarloCFReference is the reference MonteCarloEventProbCF must
// match: a fresh Generate per replication.
func monteCarloCFReference(r *rng.RNG, cfg cooperfrieze.Config, a, reps int) (estimate, stderr float64, err error) {
	hits := 0
	for i := 0; i < reps; i++ {
		res, err := cfg.Generate(r)
		if err != nil {
			return 0, 0, err
		}
		ok, err := CheckEventCF(res, a, cfg.N)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			hits++
		}
	}
	ph := float64(hits) / float64(reps)
	return ph, math.Sqrt(ph * (1 - ph) / float64(reps)), nil
}

// TestMonteCarloEstimatorsMatchReferences checks both estimators bit
// for bit against the reference loops, on windows whose event
// probability is well inside (0, 1).
func TestMonteCarloEstimatorsMatchReferences(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		seed uint64
	}{{0.25, 256, 1}, {0.5, 1024, 2}, {0.75, 300, 3}, {0, 64, 4}} {
		a, b, err := Window(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		est, se, err := MonteCarloEventProb(rng.New(tc.seed), tc.p, a, b, 300)
		if err != nil {
			t.Fatal(err)
		}
		wantEst, wantSE, err := monteCarloTreeReference(rng.New(tc.seed), tc.p, a, b, 300)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(est) != math.Float64bits(wantEst) || math.Float64bits(se) != math.Float64bits(wantSE) {
			t.Errorf("p %v n %d: MonteCarloEventProb = %v ± %v, tree reference %v ± %v",
				tc.p, tc.n, est, se, wantEst, wantSE)
		}
	}
	for _, cfg := range []cooperfrieze.Config{
		{N: 300, Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true},
		{N: 200, Alpha: 0.8, Beta: 0.3, Gamma: 0.7, Delta: 0.2, QWeights: []float64{1, 1}, PWeights: []float64{2, 1}},
	} {
		a, err := WindowEndingAt(cfg.N)
		if err != nil {
			t.Fatal(err)
		}
		est, se, err := MonteCarloEventProbCF(rng.New(9), cfg, a, 150)
		if err != nil {
			t.Fatal(err)
		}
		wantEst, wantSE, err := monteCarloCFReference(rng.New(9), cfg, a, 150)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(est) != math.Float64bits(wantEst) || math.Float64bits(se) != math.Float64bits(wantSE) {
			t.Errorf("%+v: MonteCarloEventProbCF = %v ± %v, Generate reference %v ± %v",
				cfg, est, se, wantEst, wantSE)
		}
	}
}

// TestMonteCarloEventProbAllocFree pins both estimators' cost to their
// draws. The Móri estimator allocates nothing at all. The
// Cooper–Frieze estimator allocates nothing on E3's configuration (one
// weight per out-degree table, loops allowed, so no endpoint array).
// Without loops it may allocate the endpoint array once per call, and
// with two-weight tables the two tables per replication (2 allocations
// each), as each generation did before, plus growths of the endpoint
// array past its hint, since those tables emit more edges per step.
func TestMonteCarloEventProbAllocFree(t *testing.T) {
	r := rng.New(5)
	a, b, err := Window(512)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := MonteCarloEventProb(r, 0.5, a, b, 20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MonteCarloEventProb allocates %v times per call, want 0", allocs)
	}

	const reps = 20
	for _, tc := range []struct {
		cfg  cooperfrieze.Config
		most float64
	}{
		{cooperfrieze.Config{N: 512, Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}, 0},
		{cooperfrieze.Config{N: 512, Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Delta: 0.5}, 1},
		{cooperfrieze.Config{N: 512, Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Delta: 0.5,
			QWeights: []float64{1, 1}, PWeights: []float64{2, 1}}, reps*2*2 + 4},
	} {
		a, err := WindowEndingAt(tc.cfg.N)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := MonteCarloEventProbCF(r, tc.cfg, a, reps); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.most {
			t.Errorf("%+v: MonteCarloEventProbCF allocates %v times per call, want at most %v", tc.cfg, allocs, tc.most)
		}
	}
}

// TestCFEventPassMatchesCheckEventCF pins the draw-only pass behind
// MonteCarloEventProbCF to its reference, draw for draw: on identically
// seeded generators, cfg.DrawsAtMost must give CheckEventCF's verdict on
// GenerateScratch's graph and leave the generator in the same state.
func TestCFEventPassMatchesCheckEventCF(t *testing.T) {
	configs := []cooperfrieze.Config{
		// E3's two α values.
		{Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true},
		{Alpha: 0.8, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true},
		// α = 1: every step is New.
		{Alpha: 1, Beta: 0.5, Gamma: 0.5, Delta: 0.5},
		// Coins at 0 and 1, which draw nothing.
		{Alpha: 0.5, Beta: 0, Gamma: 1, Delta: 0, AllowLoops: true},
		{Alpha: 0.5, Beta: 1, Gamma: 0, Delta: 1},
		// Every choice preferential without loops: New edges all land
		// on the seed, so Old steps from it retry to the fallback.
		{Alpha: 0.5, Beta: 1, Gamma: 1, Delta: 0},
		// Multi-weight out-degree tables, loops off and on.
		{Alpha: 0.6, Beta: 0.3, Gamma: 0.7, Delta: 0.2, QWeights: []float64{1, 1}, PWeights: []float64{2, 1}},
		{Alpha: 0.6, Beta: 0.3, Gamma: 0.7, Delta: 0.2, QWeights: []float64{1, 0, 2}, PWeights: []float64{1, 3}, AllowLoops: true},
	}
	var s cooperfrieze.Scratch
	for _, base := range configs {
		verdicts := map[bool]int{}
		for _, n := range []int{3, 64, 300, 1024} {
			cfg := base
			cfg.N = n
			end, err := WindowEndingAt(n)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 100; seed++ {
				ref := rng.New(seed)
				res, err := cfg.GenerateScratch(ref, &s)
				if err != nil {
					t.Fatal(err)
				}
				next := ref.Uint64()
				for _, a := range []int{1, n / 2, end, n - 1} {
					want, err := CheckEventCF(res, a, n)
					if err != nil {
						t.Fatal(err)
					}
					pass := rng.New(seed)
					got, err := cfg.DrawsAtMost(pass, a, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%+v seed %d a %d: pass says %v, CheckEventCF says %v", cfg, seed, a, got, want)
					}
					if x := pass.Uint64(); x != next {
						t.Fatalf("%+v seed %d a %d: streams diverge after the draw (%#x vs %#x)", cfg, seed, a, x, next)
					}
					verdicts[got]++
				}
			}
		}
		if verdicts[true] == 0 || verdicts[false] == 0 {
			t.Errorf("%+v: verdicts %v, both outcomes must be exercised", base, verdicts)
		}
	}
}

func TestCheckEventCF(t *testing.T) {
	cfg := cooperfrieze.Config{N: 400, Alpha: 0.8, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
	res, err := cfg.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := WindowEndingAt(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	// The event may or may not hold on this draw; just exercise both
	// the checker and its validation.
	if _, err := CheckEventCF(res, a, cfg.N); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckEventCF(res, a, cfg.N-1); err == nil {
		t.Error("b != NumVertices accepted")
	}
}

func TestCFEventProbabilityIsSubstantial(t *testing.T) {
	// Theorem 2 rests on P(E) being bounded away from 0. With mostly
	// uniform attachment and one edge per step the event should occur
	// with clearly positive frequency at moderate n.
	cfg := cooperfrieze.Config{N: 300, Alpha: 0.9, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
	a, err := WindowEndingAt(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	est, se, err := MonteCarloEventProbCF(rng.New(7), cfg, a, 400)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0.05 {
		t.Errorf("CF event probability %v ± %v suspiciously small", est, se)
	}
}

func TestLemma1BoundCF(t *testing.T) {
	cfg := cooperfrieze.Config{N: 300, Alpha: 0.9, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
	bound, a, prob, err := Lemma1BoundCF(rng.New(11), cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if a >= cfg.N || prob < 0 || prob > 1 {
		t.Fatalf("bound=%v a=%d prob=%v", bound, a, prob)
	}
	if want := float64(cfg.N-a) * prob / 2; math.Abs(bound-want) > 1e-12 {
		t.Errorf("bound %v inconsistent with |V|P(E)/2 = %v", bound, want)
	}
}

// BenchmarkMonteCarloEventProb times one replication of E4a's largest
// cell: p = ½ on the window (4095, 4158] of target n = 4096. -short
// drops to n = 256 for CI.
func BenchmarkMonteCarloEventProb(b *testing.B) {
	n := 1 << 12
	if testing.Short() {
		n = 1 << 8
	}
	a, bw, err := Window(n)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("window=(%d,%d]", a, bw), func(b *testing.B) {
		r := rng.New(1)
		b.ReportAllocs()
		if _, _, err := MonteCarloEventProb(r, 0.5, a, bw, b.N); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkMonteCarloEventProbCF times one replication of an E3 bound:
// α = ½, β = γ = δ = ½, loops allowed, on the window ending at
// n = 1024, E3's largest size at scale 0.25. -short drops to n = 128
// for CI.
func BenchmarkMonteCarloEventProbCF(b *testing.B) {
	n := 1 << 10
	if testing.Short() {
		n = 1 << 7
	}
	cfg := cooperfrieze.Config{N: n, Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
	a, err := WindowEndingAt(n)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		r := rng.New(1)
		b.ReportAllocs()
		if _, _, err := MonteCarloEventProbCF(r, cfg, a, b.N); err != nil {
			b.Fatal(err)
		}
	})
}
