package mori

import (
	"math/bits"
	"testing"

	"scalefree/internal/rng"
)

// TestMayRedrawCoversLemireRejection checks the prefix's rejection test
// against Lemire's own condition, computed directly: rng.Uint64n draws
// again when the low word of x·n is below (2^64 - n) mod n, and wherever
// it does, mayRedraw must say it could. The points are x = 0, 1, 2^64-1,
// random words, and the words just below and at multiples of
// ⌈2^64/n⌉, where the low word wraps below n.
func TestMayRedrawCoversLemireRejection(t *testing.T) {
	r := rng.New(17)
	rejections, accepted := 0, 0
	for n := uint64(1); n <= 10_000; n++ {
		xs := []uint64{0, 1, ^uint64(0), r.Uint64(), r.Uint64(), r.Uint64()}
		if n > 1 {
			c := (^uint64(0))/n + 1 // ⌈2^64/n⌉
			for _, j := range []uint64{1, 2, n / 2, n - 1} {
				xs = append(xs, j*c-1, j*c)
			}
		}
		for _, x := range xs {
			_, lo := bits.Mul64(x, n)
			rejects := lo < -n%n
			if rejects {
				rejections++
			}
			got := mayRedraw(x, n)
			if rejects && !got {
				t.Fatalf("n=%d x=%#x: Lemire draws again (lo %d < %d) but mayRedraw says it cannot", n, x, lo, -n%n)
			}
			if !got {
				accepted++
			}
		}
	}
	if rejections == 0 || accepted == 0 {
		t.Errorf("%d rejecting and %d accepted points: the table must exercise both", rejections, accepted)
	}
}

// TestRedrawMatchesGenerateTree runs FathersAtMost's fallback on
// ordinary seeds, after the prefix has advanced the stream as it does
// before falling back: redraw must return the verdict read off
// GenerateTree's tree and leave r where GenerateTree leaves it.
func TestRedrawMatchesGenerateTree(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := uint64(0); seed < 32; seed++ {
		for _, size := range []int{2, 3, 17, 270, 1054} {
			for _, p := range []float64{0, 0.5, 1} {
				for _, a := range []int{1, 2, size / 2, size - 1, size} {
					ref := rng.New(seed)
					tree, err := GenerateTree(ref, size, p)
					if err != nil {
						t.Fatal(err)
					}
					want := true
					for k := a + 1; k <= size; k++ {
						want = want && int(tree.Fathers[k]) <= a
					}
					pass := rng.New(seed)
					saved := *pass
					if !skipPrefix(pass, min(a, size-1)+1) {
						t.Fatalf("seed %d size %d a %d: an ordinary seed's prefix could be rejected", seed, size, a)
					}
					got := redraw(pass, saved, size, p, a)
					if got != want {
						t.Fatalf("seed %d size %d p %v a %d: redraw says %v, the tree says %v", seed, size, p, a, got, want)
					}
					if x, y := pass.Uint64(), ref.Uint64(); x != y {
						t.Fatalf("seed %d size %d p %v a %d: streams diverge after redraw (%#x vs %#x)", seed, size, p, a, x, y)
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
