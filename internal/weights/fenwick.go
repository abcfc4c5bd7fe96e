// Package weights provides weighted random sampling structures used by
// the preferential-attachment graph generators:
//
//   - EndpointArray: the append-only endpoint-array trick, O(1) per
//     record and per draw for exact hit-count weights — the production
//     sampler behind every generator hot loop;
//   - Fenwick: a binary indexed tree over integer weights with O(log n)
//     increment and O(log n) proportional sampling — the reference
//     implementation the production path is validated against.
//
// A design note (DESIGN.md §5.2; BenchmarkFenwickSample and
// BenchmarkEndpointArraySample are the per-draw ablation): the
// endpoint array supports only weights that are exact hit counts,
// while the Fenwick tree supports arbitrary integer weights. The Móri
// and Cooper–Frieze mixtures p·d(u) + (1−p) look like they need the
// general tree, but both generators flip the exact coin between the
// aggregate preferential mass and the aggregate uniform mass *before*
// drawing a vertex — after the flip the preferential draw is pure
// hit-count, so the O(1) array serves the hot loops exactly (the
// mori and cooperfrieze tests keep O(log n) Fenwick generators as the
// reference for their chi-square equivalence tests and generator
// benchmarks). Switching samplers changes how many random draws
// each step consumes, so the swap was a one-time seed→output break;
// determinism across worker counts is unaffected.
package weights

import (
	"fmt"
	"math/bits"

	"scalefree/internal/rng"
)

// Fenwick is a binary indexed tree over non-negative int64 weights for
// items indexed 1..n. The zero value is unusable; call NewFenwick.
type Fenwick struct {
	tree []int64 // 1-based; tree[i] covers a block ending at i
	n    int
	mask int // highest power of two <= n, for O(log n) sampling descent
}

// NewFenwick returns a tree over items 1..n, all with weight zero.
func NewFenwick(n int) *Fenwick {
	if n < 0 {
		panic(fmt.Sprintf("weights: NewFenwick(%d)", n))
	}
	mask := 0
	if n > 0 {
		mask = 1 << (bits.Len(uint(n)) - 1)
	}
	return &Fenwick{tree: make([]int64, n+1), n: n, mask: mask}
}

// Len returns the number of items.
func (f *Fenwick) Len() int { return f.n }

// Add increases the weight of item i (1-based) by delta. The resulting
// weight must remain non-negative, which Add does not check for speed;
// Weight can be used to audit in tests.
func (f *Fenwick) Add(i int, delta int64) {
	if i < 1 || i > f.n {
		panic(fmt.Sprintf("weights: Fenwick.Add index %d out of [1, %d]", i, f.n))
	}
	for ; i <= f.n; i += i & -i {
		f.tree[i] += delta
	}
}

// PrefixSum returns the sum of weights of items 1..i.
func (f *Fenwick) PrefixSum(i int) int64 {
	if i > f.n {
		i = f.n
	}
	var s int64
	for ; i > 0; i -= i & -i {
		s += f.tree[i]
	}
	return s
}

// Total returns the sum of all weights.
func (f *Fenwick) Total() int64 { return f.PrefixSum(f.n) }

// Weight returns the weight of item i.
func (f *Fenwick) Weight(i int) int64 {
	if i < 1 || i > f.n {
		panic(fmt.Sprintf("weights: Fenwick.Weight index %d out of [1, %d]", i, f.n))
	}
	return f.PrefixSum(i) - f.PrefixSum(i-1)
}

// Sample draws an item with probability proportional to its weight.
// It panics when the total weight is zero.
func (f *Fenwick) Sample(r *rng.RNG) int {
	total := f.Total()
	if total <= 0 {
		panic("weights: Fenwick.Sample on empty distribution")
	}
	target := int64(r.Uint64n(uint64(total)))
	return f.find(target)
}

// find returns the smallest index i with PrefixSum(i) > target, by
// binary descent over the implicit tree.
func (f *Fenwick) find(target int64) int {
	idx := 0
	for step := f.mask; step > 0; step >>= 1 {
		next := idx + step
		if next <= f.n && f.tree[next] <= target {
			idx = next
			target -= f.tree[next]
		}
	}
	return idx + 1
}
