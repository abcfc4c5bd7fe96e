// Package equivalence implements the probabilistic vertex-equivalence
// machinery at the heart of the paper's lower bounds (Section 2):
//
//   - the event E_{a,b} = ∩_{a<k<=b} {N_k <= a} — every vertex in the
//     window (a, b] attached to a vertex no younger than a (Lemma 2);
//
//   - its *exact* probability in the Móri tree. Conditional on the
//     event holding up to time k-1, the total indegree of [1, a] is
//     deterministic (k-2 — all edges so far point into [1, a]), so
//
//     P(E_{a,b}) = Π_{k=a+1}^{b} [p(k-2) + (1-p)a] / [p(k-2) + (1-p)(k-1)]
//
//     with the convention that the k = a+1 factor is 1 when a = 1;
//
//   - its Monte-Carlo estimate, which by the same argument needs no
//     tree: while the event holds, every recorded endpoint lies in
//     [1, a], so only a uniform draw above a can break it, and before
//     the window no draw can. MonteCarloEventProb therefore runs
//     mori.FathersAtMost, which consumes GenerateTree's RNG outputs,
//     computes draws only where they can decide the event, and keeps
//     only the verdict; GenerateTree + CheckEvent remain its test
//     reference;
//
//   - Lemma 3's closed-form floor: for b = a + ⌊√(a-1)⌋,
//     P(E_{a,b}) >= e^{-(1-p)};
//
//   - the permutation action σ(G) on trees and the exhaustive
//     verification that, conditional on E_{a,b}, window permutations
//     preserve the tree distribution (Lemma 2), by exact enumeration;
//
//   - the equivalence event for Cooper–Frieze graphs used by Theorem 2
//     (window vertices untouched except their own arrival edges into
//     [1, a]), checked on generated graphs by CheckEventCF and
//     estimated by Monte Carlo through cooperfrieze's draw-only
//     DrawsAtMost: the event holds iff no drawn terminal or Old-step
//     source exceeds a, so no replication builds a graph;
//     GenerateScratch + CheckEventCF remain its test reference.
package equivalence

import (
	"fmt"
	"math"

	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// CheckEvent reports whether E_{a,b} holds in the tree: every vertex k
// in (a, b] has Father(k) <= a.
func CheckEvent(t *mori.Tree, a, b int) (bool, error) {
	if err := validateWindow(a, b, t.Size()); err != nil {
		return false, err
	}
	for k := a + 1; k <= b; k++ {
		if int(t.Father(graph.Vertex(k))) > a {
			return false, nil
		}
	}
	return true, nil
}

// ExactEventProb computes P(E_{a,b}) in the Móri tree with parameter p
// by the exact product formula. The value does not depend on the tree
// size (vertices after b cannot affect the event).
func ExactEventProb(p float64, a, b int) (float64, error) {
	if err := validateWindow(a, b, b); err != nil {
		return 0, err
	}
	// p = 0 (pure uniform attachment) is the extension boundary; the
	// product formula remains exact there.
	if math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("equivalence: p = %v out of [0, 1]", p)
	}
	logP := 0.0
	for k := a + 1; k <= b; k++ {
		if k == 2 {
			continue // vertex 2 always attaches to vertex 1 <= a
		}
		num := p*float64(k-2) + (1-p)*float64(a)
		den := p*float64(k-2) + (1-p)*float64(k-1)
		logP += math.Log(num / den)
	}
	return math.Exp(logP), nil
}

// Lemma3Bound returns the paper's closed-form floor e^{-(1-p)} on
// P(E_{a,b}) for the canonical window b = a + ⌊√(a-1)⌋.
func Lemma3Bound(p float64) float64 {
	return math.Exp(-(1 - p))
}

// Window returns the canonical equivalence window for target vertex n,
// as in the proof of Theorem 1: V = [[n, n+√n-1]] = [[a+1, b]] with
// a = n-1 and b = a + ⌊√(a-1)⌋. The tree must have at least b vertices
// for the window to exist.
func Window(n int) (a, b int, err error) {
	if n < 3 {
		return 0, 0, fmt.Errorf("equivalence: window needs target n >= 3, got %d", n)
	}
	a = n - 1
	b = a + isqrt(a-1)
	return a, b, nil
}

// WindowEndingAt returns the start a of an equivalence window (a, b]
// that ends at vertex b and holds ~√b vertices. It is the window shape
// used for Cooper–Frieze graphs, whose generation stops at the target
// vertex b = n.
func WindowEndingAt(b int) (a int, err error) {
	if b < 3 {
		return 0, fmt.Errorf("equivalence: window needs b >= 3, got %d", b)
	}
	a = b - isqrt(b-1)
	if a < 1 {
		a = 1
	}
	return a, nil
}

// isqrt returns ⌊√x⌋.
func isqrt(x int) int {
	if x < 0 {
		return 0
	}
	r := int(math.Sqrt(float64(x)))
	for r*r > x {
		r--
	}
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// MonteCarloEventProb estimates P(E_{a,b}) over reps draws of a tree
// of size b and returns the estimate and its standard error. Each
// replication consumes exactly the RNG outputs mori.GenerateTree(r, b,
// p) consumes but builds no tree: mori.FathersAtMost decides the event
// from the draws alone, skipping the coin and index arithmetic of the
// vertices before the window, so the estimate equals, bit for bit,
// counting CheckEvent over generated trees, and the call allocates
// nothing.
func MonteCarloEventProb(r *rng.RNG, p float64, a, b, reps int) (estimate, stderr float64, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("equivalence: reps = %d < 1", reps)
	}
	if err := validateWindow(a, b, b); err != nil {
		return 0, 0, err
	}
	hits := 0
	for i := 0; i < reps; i++ {
		ok, err := mori.FathersAtMost(r, b, p, a)
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

// Lemma1Bound evaluates the paper's lower bound |V|·P(E)/2 on the
// expected number of weak-model requests to find target n in the Móri
// tree with parameter p, using the canonical window and the exact
// event probability.
func Lemma1Bound(n int, p float64) (float64, error) {
	a, b, err := Window(n)
	if err != nil {
		return 0, err
	}
	prob, err := ExactEventProb(p, a, b)
	if err != nil {
		return 0, err
	}
	return float64(b-a) * prob / 2, nil
}

func validateWindow(a, b, size int) error {
	if a < 1 {
		return fmt.Errorf("equivalence: window start a = %d < 1", a)
	}
	if b < a {
		return fmt.Errorf("equivalence: window [%d+1, %d] empty", a, b)
	}
	if b > size {
		return fmt.Errorf("equivalence: window end %d exceeds tree size %d", b, size)
	}
	return nil
}
