package equivalence

import (
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

func TestWindowPermutationValidation(t *testing.T) {
	if _, err := WindowPermutation(5, 2, 4, []int{0}); err == nil {
		t.Error("wrong perm length accepted")
	}
	if _, err := WindowPermutation(5, 2, 4, []int{0, 0}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := WindowPermutation(5, 2, 4, []int{0, 5}); err == nil {
		t.Error("out-of-range perm accepted")
	}
	if _, err := WindowPermutation(3, 2, 4, []int{0, 1}); err == nil {
		t.Error("window past size accepted")
	}
}

func TestWindowPermutationIdentityOutside(t *testing.T) {
	sigma, err := WindowPermutation(6, 2, 4, []int{1, 0}) // swap 3 and 4
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Vertex{0, 1, 2, 4, 3, 5, 6}
	for v := 1; v <= 6; v++ {
		if sigma[v] != want[v] {
			t.Errorf("sigma[%d] = %d, want %d", v, sigma[v], want[v])
		}
	}
}

func TestPermuteTreeSwapsWindowLabels(t *testing.T) {
	// Tree: 2→1, 3→1, 4→2; swap 3 and 4 (window (2,4], both fathers <= 2).
	tree := &mori.Tree{P: 0.5, Fathers: []graph.Vertex{0, 0, 1, 1, 2}}
	sigma, err := WindowPermutation(4, 2, 4, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	image, err := PermuteTree(tree, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// New tree: σ(3)=4 keeps father 1 → 4→1; σ(4)=3 keeps father 2 → 3→2.
	if image.Father(3) != 2 || image.Father(4) != 1 {
		t.Errorf("image fathers = %v", image.Fathers)
	}
}

func TestPermuteTreeRejectsNonIncreasingImage(t *testing.T) {
	// Tree 2→1, 3→1, 4→3: father of 4 is inside the window (2,4], so
	// swapping 3 and 4 maps edge 4→3 to 3→4, which is not increasing.
	tree := &mori.Tree{P: 0.5, Fathers: []graph.Vertex{0, 0, 1, 1, 3}}
	sigma, err := WindowPermutation(4, 2, 4, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PermuteTree(tree, sigma); err == nil {
		t.Error("non-increasing image accepted")
	}
}

func TestPermuteTreeIdentity(t *testing.T) {
	tree, err := mori.GenerateTree(rng.New(5), 30, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	sigma := make([]graph.Vertex, 31)
	for v := 1; v <= 30; v++ {
		sigma[v] = graph.Vertex(v)
	}
	image, err := PermuteTree(tree, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 30; k++ {
		if image.Father(graph.Vertex(k)) != tree.Father(graph.Vertex(k)) {
			t.Fatalf("identity permutation changed father of %d", k)
		}
	}
}

func TestForEachPermutationCounts(t *testing.T) {
	for k, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 6, 4: 24} {
		count := 0
		seen := map[[4]int]bool{}
		ForEachPermutation(k, func(perm []int) {
			count++
			var key [4]int
			copy(key[:], perm)
			seen[key] = true
		})
		if count != want {
			t.Errorf("k=%d: %d permutations, want %d", k, count, want)
		}
		if k >= 1 && len(seen) != want {
			t.Errorf("k=%d: %d distinct permutations, want %d", k, len(seen), want)
		}
	}
}

func TestVerifyLemma2Exhaustive(t *testing.T) {
	// The core correctness theorem of the equivalence machinery,
	// verified exactly on all trees of sizes 5-7 for several windows
	// and mixing parameters.
	cases := []struct {
		size, a, b int
		p          float64
	}{
		{5, 2, 4, 0.5},
		{6, 2, 5, 0.5},
		{6, 3, 5, 0.3},
		{7, 3, 6, 0.7},
		{7, 4, 6, 1.0},
	}
	for _, tc := range cases {
		checked, err := VerifyLemma2(tc.size, tc.a, tc.b, tc.p, 1e-12)
		if err != nil {
			t.Errorf("size=%d window (%d,%d] p=%v: %v", tc.size, tc.a, tc.b, tc.p, err)
			continue
		}
		if checked == 0 {
			t.Errorf("size=%d window (%d,%d]: nothing checked", tc.size, tc.a, tc.b)
		}
	}
}

func TestVerifyLemma2CatchesBrokenWindow(t *testing.T) {
	// Permuting a window that includes vertex 2 with a=1 must still
	// work (E forces fathers to vertex 1)... but a window whose event
	// does not actually confer symmetry would fail. Use an intentionally
	// wrong "event": here we simulate it by checking a window where the
	// tree probabilities genuinely differ — permuting (1, 3] without
	// conditioning. VerifyLemma2 conditions correctly, so instead we
	// check the validation path.
	if _, err := VerifyLemma2(5, 0, 3, 0.5, 1e-12); err == nil {
		t.Error("invalid window accepted")
	}
}

func TestConditionalExchangeabilityEmpirical(t *testing.T) {
	// Monte-Carlo version of Lemma 2 on a larger tree than enumeration
	// can reach: conditional on E_{a,b}, the indegree samples of the
	// first and last window vertices must be statistically
	// indistinguishable (KS test), while unconditionally the older
	// vertex has strictly more expected indegree.
	const (
		size = 64
		a    = 57 // window (57, 64], 7 = isqrt(56) vertices
		b    = 64
		p    = 0.5
	)
	r := rng.New(99)
	var condFirst, condLast []float64
	var uncondFirst, uncondLast float64
	total := 0
	for len(condFirst) < 400 && total < 200000 {
		total++
		tree, err := mori.GenerateTree(r, size, p)
		if err != nil {
			t.Fatal(err)
		}
		degs := tree.InDegreesInto(nil)
		uncondFirst += float64(degs[a+1])
		uncondLast += float64(degs[b])
		ok, err := CheckEvent(tree, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			condFirst = append(condFirst, float64(degs[a+1]))
			condLast = append(condLast, float64(degs[b]))
		}
	}
	if len(condFirst) < 400 {
		t.Fatalf("only %d conditioned samples in %d draws", len(condFirst), total)
	}
	ks, err := stats.KSTwoSample(condFirst, condLast)
	if err != nil {
		t.Fatal(err)
	}
	if ks.PValue < 0.001 {
		t.Errorf("conditional indegree distributions differ: D=%v p=%v", ks.Statistic, ks.PValue)
	}
	// Sanity on the unconditional asymmetry (age bias): vertex a+1 is
	// older and should collect more indegree on average.
	if uncondFirst <= uncondLast {
		t.Errorf("unconditional age bias missing: first %v, last %v", uncondFirst, uncondLast)
	}
}
