package geopa

import (
	"fmt"
	"math"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

func TestValidate(t *testing.T) {
	for _, bad := range []Config{
		{N: 1, M: 1, R: 0.25},
		{N: 100, M: 0, R: 0.25},
		{N: 100, M: 1, R: 0},
		{N: 100, M: 1, R: -1},
		{N: 100, M: 1, R: 0.01}, // below the busy-loop floor
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v validated", bad)
		}
		if _, err := bad.Generate(rng.New(1)); err == nil {
			t.Errorf("%+v generated", bad)
		}
	}
}

func TestTorusDist(t *testing.T) {
	cases := []struct {
		x1, y1, x2, y2, want float64
	}{
		{0, 0, 0, 0, 0},
		{0.1, 0, 0.4, 0, 0.3},
		{0.05, 0, 0.95, 0, 0.1}, // wraps around
		{0, 0.05, 0, 0.95, 0.1},
		{0, 0, 0.5, 0.5, math.Sqrt(0.5)}, // the torus diameter
	}
	for _, c := range cases {
		if got := torusDist(c.x1, c.y1, c.x2, c.y2); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("torusDist(%v,%v,%v,%v) = %v, want %v", c.x1, c.y1, c.x2, c.y2, got, c.want)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Config{N: 400, M: 2, R: 0.25}
	g, err := cfg.Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 400 || g.NumEdges() != 1+2*399 {
		t.Fatalf("got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if _, comps := graph.Components(g); comps != 1 {
		t.Errorf("geopa graph has %d components, want 1", comps)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{N: 300, M: 1, R: 0.25}
	a, err := cfg.Generate(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Generate(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(a, b) {
		t.Error("equal seeds yield different graphs")
	}
}

func TestGenerateScratchMatchesGenerate(t *testing.T) {
	cfg := Config{N: 200, M: 2, R: 0.3}
	var s Scratch
	for seed := uint64(1); seed <= 5; seed++ {
		want, err := cfg.Generate(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cfg.GenerateScratch(rng.New(seed), &s)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(want, got) {
			t.Fatalf("seed %d: scratch generation diverges from Generate", seed)
		}
	}
}

// TestGenerateScratchAllocFree pins the steady state of the scratch
// path: after a warm-up generation, repeated same-size draws perform
// zero allocations.
func TestGenerateScratchAllocFree(t *testing.T) {
	cfg := Config{N: 500, M: 2, R: 0.25}
	var s Scratch
	r := rng.New(3)
	gen := func() {
		if _, err := cfg.GenerateScratch(r, &s); err != nil {
			t.Fatal(err)
		}
	}
	gen() // warm up the buffers
	if allocs := testing.AllocsPerRun(10, gen); allocs > 0 {
		t.Errorf("steady-state GenerateScratch allocates %v times per graph, want 0", allocs)
	}
}

// TestRejectionMatchesRefDistribution is the sampler safety net: the
// O(1) rejection sampler on the endpoint array and the O(n) exact-
// inversion reference must draw degree distributions that a two-sample
// chi-square test cannot tell apart.
func TestRejectionMatchesRefDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution comparison is not short")
	}
	const (
		size = 400
		reps = 250
		bins = 9 // degrees 1..7 and >= 8 (index 0 unused: min degree is 1)
	)
	for _, r := range []float64{0.15, 0.4} {
		cfg := Config{N: size, M: 1, R: r}
		histProd := make([]int, bins)
		histRef := make([]int, bins)
		for rep := 0; rep < reps; rep++ {
			gp, err := cfg.Generate(rng.New(rng.DeriveSeed(31, uint64(rep))))
			if err != nil {
				t.Fatal(err)
			}
			gr, err := cfg.GenerateRef(rng.New(rng.DeriveSeed(32, uint64(rep))))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range gp.Degrees()[1:] {
				histProd[min(d, bins-1)]++
			}
			for _, d := range gr.Degrees()[1:] {
				histRef[min(d, bins-1)]++
			}
		}
		res, err := stats.ChiSquareTwoSample(histProd, histRef)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 1e-3 {
			t.Errorf("r=%v: rejection vs reference degree distributions differ: chi2=%.2f df=%d p-value=%g\nproduction: %v\nreference:  %v",
				r, res.Statistic, res.DF, res.PValue, histProd, histRef)
		}
	}
}

// BenchmarkGenerate measures the geometric-PA production path: the
// O(1) endpoint-array rejection sampler, with and without scratch
// reuse (the O(n)-per-draw exact-inversion reference is validated by
// chi-square in the tests but is quadratic, so it stays out of the
// benchmark). -short drops to a smoke size for CI.
func BenchmarkGenerate(b *testing.B) {
	n := 1 << 18
	if testing.Short() {
		n = 1 << 13
	}
	cfg := Config{N: n, M: 2, R: 0.25}
	b.Run(fmt.Sprintf("endpoint/n=%d", n), func(b *testing.B) {
		r := rng.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Generate(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("endpoint-scratch/n=%d", n), func(b *testing.B) {
		r := rng.New(1)
		var s Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cfg.GenerateScratch(r, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
}
