package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 outputs", same)
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := make(map[uint64]bool)
	for stream := uint64(0); stream < 1000; stream++ {
		s := DeriveSeed(12345, stream)
		if seen[s] {
			t.Fatalf("DeriveSeed collision at stream %d", stream)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("DeriveSeed ignores the base seed")
	}
}

// TestDeriveSeedStreamIndependence is the property the parallel trial
// engine leans on: generators seeded from *consecutive* stream indices
// of the same base must behave like independent streams. It checks, for
// several adjacent index pairs, that the two streams never collide
// positionally over many draws and that their outputs differ in about
// half their bits on average (the bitwise signature of independent
// uniform draws).
func TestDeriveSeedStreamIndependence(t *testing.T) {
	const draws = 4096
	base := uint64(2024)
	for _, stream := range []uint64{0, 1, 7, 1000} {
		a := New(DeriveSeed(base, stream))
		b := New(DeriveSeed(base, stream+1))
		differing := 0
		for i := 0; i < draws; i++ {
			x, y := a.Uint64(), b.Uint64()
			if x == y {
				t.Fatalf("streams %d and %d collide at position %d", stream, stream+1, i)
			}
			differing += bits.OnesCount64(x ^ y)
		}
		mean := float64(differing) / (64 * draws)
		// Independent uniform draws differ in half their bits; the
		// tolerance is ~6 standard deviations of the mean estimate.
		if math.Abs(mean-0.5) > 0.006 {
			t.Errorf("streams %d and %d: mean bit difference %.4f, want ~0.5",
				stream, stream+1, mean)
		}
	}
}

// TestDeriveSeedCrossBaseIndependence extends the check across base
// seeds: the same stream index under different bases must also yield
// unrelated generators (experiments derive both ways).
func TestDeriveSeedCrossBaseIndependence(t *testing.T) {
	const draws = 4096
	a := New(DeriveSeed(1, 42))
	b := New(DeriveSeed(2, 42))
	differing := 0
	for i := 0; i < draws; i++ {
		x, y := a.Uint64(), b.Uint64()
		if x == y {
			t.Fatalf("bases 1 and 2 collide at position %d", i)
		}
		differing += bits.OnesCount64(x ^ y)
	}
	if mean := float64(differing) / (64 * draws); math.Abs(mean-0.5) > 0.006 {
		t.Errorf("cross-base mean bit difference %.4f, want ~0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expectation %.0f", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-5, 5)
		if v < -5 || v > 5 {
			t.Fatalf("IntRange(-5,5) = %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d, want 4", got)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-1) {
			t.Fatal("Bernoulli(-1) returned true")
		}
		if !r.Bernoulli(2) {
			t.Fatal("Bernoulli(2) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(13)
	const p, draws = 0.3, 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.005 {
		t.Errorf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPermUniformity(t *testing.T) {
	// All 6 permutations of 3 elements should appear about equally often.
	r := New(17)
	counts := map[[3]int]int{}
	const draws = 60000
	for i := 0; i < draws; i++ {
		p := r.Perm(3)
		counts[[3]int{p[0], p[1], p[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations, want 6", len(counts))
	}
	want := float64(draws) / 6
	for p, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("perm %v: count %d too far from %.0f", p, c, want)
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	seen := map[int]bool{}
	for _, x := range xs {
		got += x
		seen[x] = true
	}
	if got != sum || len(seen) != len(xs) {
		t.Fatalf("shuffle corrupted slice: %v", xs)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(31)
	const p, draws = 0.25, 100000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += r.Geometric(p)
	}
	got := float64(sum) / draws
	want := (1 - p) / p
	if math.Abs(got-want) > 0.1 {
		t.Errorf("Geometric(%v) mean %v, want %v", p, got, want)
	}
	if v := r.Geometric(1); v != 0 {
		t.Errorf("Geometric(1) = %d, want 0", v)
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestExpMean(t *testing.T) {
	r := New(37)
	const lambda, draws = 2.0, 100000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += r.Exp(lambda)
	}
	if got := sum / draws; math.Abs(got-1/lambda) > 0.02 {
		t.Errorf("Exp(%v) mean %v, want %v", lambda, got, 1/lambda)
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(41)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2.5, 1, 100)
		if v < 1 || v > 100 {
			t.Fatalf("Pareto sample %v out of [1, 100]", v)
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	r := New(1)
	r.Uint64() // disturb the state
	r.Reseed(42)
	want := New(42)
	for i := 0; i < 16; i++ {
		if got, exp := r.Uint64(), want.Uint64(); got != exp {
			t.Fatalf("draw %d: Reseed stream %d != New stream %d", i, got, exp)
		}
	}
}

// TestKnownAnswers pins the generator's output bit for bit. Every
// table, smoke digest and benchmark reference digest in the repository
// is a function of this stream, so a rewrite of the generator or of a
// bounded draw must reproduce these values; the experiment digests
// would catch a changed draw too, but far from its cause. The values
// were recorded before Uint64 was rewritten over locals. The Uint64n
// bound 2^63+1 rejects about half its draws (this one rejects once),
// so the rejection loop is pinned as well.
func TestKnownAnswers(t *testing.T) {
	streams := []struct {
		seed uint64
		want [8]uint64
	}{
		{0, [8]uint64{
			0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc, 0x02eebf8c3bbe5e1a,
			0x7eca04ebaf4a5eea, 0x0543c37757f08d9a, 0xdb7490c75ab5026e, 0xd87343e6464bc959,
		}},
		{2024, [8]uint64{
			0x8641253f8fed82d1, 0x4b7eeec62af66af9, 0x3e595fe9cf746b2a, 0x6bf1aa430346476c,
			0xbf8964d6922c13c4, 0xceecac21bb20bc65, 0xfa80bc903817a43f, 0xa9b7d31dc2646815,
		}},
	}
	for _, s := range streams {
		r := New(s.seed)
		for i, want := range s.want {
			if got := r.Uint64(); got != want {
				t.Errorf("New(%d) draw %d = %#016x, want %#016x", s.seed, i, got, want)
			}
		}
	}

	for s, want := range []uint64{0x51b1f860c38cd752, 0xbd3fb96554e1a097, 0x2744006b1e058e7f, 0xabea98581c5c6a88} {
		if got := DeriveSeed(2024, uint64(s)); got != want {
			t.Errorf("DeriveSeed(2024, %d) = %#016x, want %#016x", s, got, want)
		}
	}

	r := New(2024)
	if got, want := math.Float64bits(r.Float64()), uint64(0x3fe0c824a7f1fdb0); got != want {
		t.Errorf("Float64 bits = %#016x, want %#016x", got, want)
	}
	if got := r.Intn(3); got != 0 {
		t.Errorf("Intn(3) = %d, want 0", got)
	}
	if got := r.IntRange(1, 4158); got != 1013 {
		t.Errorf("IntRange(1, 4158) = %d, want 1013", got)
	}
	if got, want := r.Uint64n(1<<63+1), uint64(0x5fc4b26b491609e2); got != want {
		t.Errorf("Uint64n(1<<63+1) = %#016x, want %#016x", got, want)
	}
	if r.Bernoulli(0.3) {
		t.Error("Bernoulli(0.3) = true, want false")
	}
	if got, want := r.Perm(8), []int{3, 4, 1, 5, 7, 6, 0, 2}; !slices.Equal(got, want) {
		t.Errorf("Perm(8) = %v, want %v", got, want)
	}
	if got, want := r.Uint64(), uint64(0x7f5d4190700dc04d); got != want {
		t.Errorf("draw after the mixed sequence = %#016x, want %#016x", got, want)
	}
}
