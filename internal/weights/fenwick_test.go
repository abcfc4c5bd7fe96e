package weights

import (
	"math"
	"testing"
	"testing/quick"

	"scalefree/internal/rng"
)

// NewEndpointArray returns an empty sampler with a capacity hint. The
// generators keep theirs in scratches; only these tests construct one.
func NewEndpointArray(capHint int) *EndpointArray {
	e := &EndpointArray{}
	e.Reset(capHint)
	return e
}

func TestFenwickPrefixSums(t *testing.T) {
	f := NewFenwick(10)
	for i := 1; i <= 10; i++ {
		f.Add(i, int64(i))
	}
	for i := 0; i <= 10; i++ {
		want := int64(i * (i + 1) / 2)
		if got := f.PrefixSum(i); got != want {
			t.Errorf("PrefixSum(%d) = %d, want %d", i, got, want)
		}
	}
	if got := f.Total(); got != 55 {
		t.Errorf("Total = %d, want 55", got)
	}
	if got := f.PrefixSum(99); got != 55 {
		t.Errorf("PrefixSum past end = %d, want 55", got)
	}
}

func TestFenwickWeight(t *testing.T) {
	f := NewFenwick(5)
	f.Add(2, 7)
	f.Add(4, 3)
	f.Add(2, -2)
	wants := []int64{0, 5, 0, 3, 0}
	for i, want := range wants {
		if got := f.Weight(i + 1); got != want {
			t.Errorf("Weight(%d) = %d, want %d", i+1, got, want)
		}
	}
}

func TestFenwickMatchesLinearScan(t *testing.T) {
	// Property: Fenwick prefix sums equal a naive accumulation for
	// arbitrary update sequences.
	check := func(seed uint64, nRaw uint8, ops uint8) bool {
		n := int(nRaw%30) + 1
		r := rng.New(seed)
		f := NewFenwick(n)
		naive := make([]int64, n+1)
		for k := 0; k < int(ops); k++ {
			i := r.IntRange(1, n)
			delta := int64(r.IntRange(0, 9))
			f.Add(i, delta)
			naive[i] += delta
		}
		sum := int64(0)
		for i := 1; i <= n; i++ {
			sum += naive[i]
			if f.PrefixSum(i) != sum {
				return false
			}
			if f.Weight(i) != naive[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFenwickSampleProportions(t *testing.T) {
	f := NewFenwick(4)
	f.Add(1, 1)
	f.Add(2, 2)
	f.Add(3, 3)
	f.Add(4, 4)
	r := rng.New(42)
	const draws = 200000
	counts := make([]int, 5)
	for i := 0; i < draws; i++ {
		counts[f.Sample(r)]++
	}
	for i := 1; i <= 4; i++ {
		want := float64(i) / 10
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.005 {
			t.Errorf("P(item %d) = %v, want %v", i, got, want)
		}
	}
}

func TestFenwickSampleSkipsZeroWeights(t *testing.T) {
	f := NewFenwick(5)
	f.Add(3, 10)
	r := rng.New(7)
	for i := 0; i < 1000; i++ {
		if got := f.Sample(r); got != 3 {
			t.Fatalf("sampled zero-weight item %d", got)
		}
	}
}

func TestFenwickSampleNonPowerOfTwo(t *testing.T) {
	// Sampling descent must stay in range for n that is not a power of
	// two, including weight on the final item.
	f := NewFenwick(13)
	f.Add(13, 5)
	f.Add(1, 5)
	r := rng.New(9)
	for i := 0; i < 2000; i++ {
		got := f.Sample(r)
		if got != 1 && got != 13 {
			t.Fatalf("sampled %d; only items 1 and 13 have weight", got)
		}
	}
}

func TestFenwickSamplePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample on zero-total tree did not panic")
		}
	}()
	NewFenwick(3).Sample(rng.New(1))
}

func TestFenwickIndexPanics(t *testing.T) {
	f := NewFenwick(3)
	for _, fn := range []func(){
		func() { f.Add(0, 1) },
		func() { f.Add(4, 1) },
		func() { f.Weight(0) },
		func() { f.Weight(4) },
		func() { NewFenwick(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEndpointArrayProportions(t *testing.T) {
	e := NewEndpointArray(10)
	e.Record(1)
	e.Record(2)
	e.Record(2)
	e.Record(2)
	if e.Total() != 4 {
		t.Fatalf("Total = %d, want 4", e.Total())
	}
	r := rng.New(19)
	const draws = 100000
	twos := 0
	for i := 0; i < draws; i++ {
		if e.Sample(r) == 2 {
			twos++
		}
	}
	got := float64(twos) / draws
	if math.Abs(got-0.75) > 0.01 {
		t.Errorf("P(2) = %v, want 0.75", got)
	}
}

func TestEndpointArrayPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample on empty endpoint array did not panic")
		}
	}()
	NewEndpointArray(0).Sample(rng.New(1))
}

// BenchmarkFenwickSample times one draw, and the sampler ablation's
// per-draw step of a generator (DESIGN.md §5.2): a draw plus the hit
// it adds, on the O(log n) reference sampler. Compare with
// BenchmarkEndpointArraySample.
func BenchmarkFenwickSample(b *testing.B) {
	b.Run("sample", func(b *testing.B) {
		n := 1 << 16
		f := NewFenwick(n)
		r := rng.New(1)
		for i := 1; i <= n; i++ {
			f.Add(i, int64(r.IntRange(1, 10)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Sample(r)
		}
	})
	b.Run("sample-add", func(b *testing.B) {
		const n = 1 << 15
		f := NewFenwick(n)
		r := rng.New(1)
		for i := 1; i <= n; i++ {
			f.Add(i, 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Add(f.Sample(r), 1)
		}
	})
}

// BenchmarkEndpointArraySample is BenchmarkFenwickSample on the O(1)
// production sampler: one draw, and a draw plus the hit it records.
func BenchmarkEndpointArraySample(b *testing.B) {
	b.Run("sample", func(b *testing.B) {
		n := 1 << 16
		e := NewEndpointArray(n)
		r := rng.New(1)
		for i := 0; i < n; i++ {
			e.Record(int32(r.IntRange(1, n)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Sample(r)
		}
	})
	b.Run("sample-record", func(b *testing.B) {
		const n = 1 << 15
		e := NewEndpointArray(n + 1)
		r := rng.New(1)
		for i := 1; i <= n; i++ {
			e.Record(int32(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Record(e.Sample(r))
		}
	})
}
