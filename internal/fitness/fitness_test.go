package fitness

import (
	"fmt"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

func TestValidate(t *testing.T) {
	for _, bad := range []Config{
		{N: 1, M: 1, Eta0: 0.1},
		{N: 100, M: 0, Eta0: 0.1},
		{N: 100, M: 1, Eta0: 0},
		{N: 100, M: 1, Eta0: -0.5},
		{N: 100, M: 1, Eta0: 1.5},
		{N: 100, M: 1, Eta0: 1e-9}, // below the busy-loop floor
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v validated", bad)
		}
		if _, err := bad.Generate(rng.New(1)); err == nil {
			t.Errorf("%+v generated", bad)
		}
	}
	if err := (Config{N: 100, M: 2, Eta0: 1}).Validate(); err != nil {
		t.Errorf("eta0=1 (pure BA) rejected: %v", err)
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Config{N: 400, M: 2, Eta0: 0.2}
	g, err := cfg.Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 400 || g.NumEdges() != 1+2*399 {
		t.Fatalf("got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if _, comps := graph.Components(g); comps != 1 {
		t.Errorf("fitness graph has %d components, want 1", comps)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{N: 300, M: 1, Eta0: 0.1}
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
	cfg := Config{N: 200, M: 2, Eta0: 0.3}
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
	cfg := Config{N: 500, M: 2, Eta0: 0.2}
	var s Scratch
	r := rng.New(3)
	gen := func() {
		if _, err := cfg.GenerateScratch(r, &s); err != nil {
			t.Fatal(err)
		}
	}
	gen() // warm up the buffers
	for i := 0; i < 10; i++ {
		if allocs := testing.AllocsPerRun(1, gen); allocs > 0 {
			t.Errorf("steady-state GenerateScratch run %d allocates %v times, want 0", i, allocs)
			break
		}
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
	for _, eta0 := range []float64{0.1, 0.5} {
		cfg := Config{N: size, M: 1, Eta0: eta0}
		histProd := make([]int, bins)
		histRef := make([]int, bins)
		for rep := 0; rep < reps; rep++ {
			gp, err := cfg.Generate(rng.New(rng.DeriveSeed(21, uint64(rep))))
			if err != nil {
				t.Fatal(err)
			}
			gr, err := cfg.GenerateRef(rng.New(rng.DeriveSeed(22, uint64(rep))))
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
			t.Errorf("eta0=%v: rejection vs reference degree distributions differ: chi2=%.2f df=%d p-value=%g\nproduction: %v\nreference:  %v",
				eta0, res.Statistic, res.DF, res.PValue, histProd, histRef)
		}
	}
}

// GenerateRef is the reference generator: the same process drawing
// every attachment target by exact inversion over the weights η_u·d(u)
// with an O(n) linear scan per draw. It samples exactly the same
// distribution as Generate, which TestRejectionMatchesRefDistribution
// checks; the two consume RNG streams differently, so equal seeds
// yield different (identically distributed) graphs.
func (c Config) GenerateRef(r *rng.RNG) (*graph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(c.N, c.numEdges())
	eta := make([]float64, c.N+1)
	deg := make([]int, c.N+1)

	b.AddVertex()
	eta[1] = c.drawFitness(r)
	b.AddEdge(1, 1)
	deg[1] = 2
	total := 2 * eta[1] // running Σ η_u·d(u)

	for t := 2; t <= c.N; t++ {
		v := b.AddVertex()
		eta[v] = c.drawFitness(r)
		base := b.NumEdges()
		for i := 0; i < c.M; i++ {
			x := r.Float64() * total
			w := graph.Vertex(1)
			for u := 1; u < t; u++ {
				x -= eta[u] * float64(deg[u])
				if x < 0 {
					w = graph.Vertex(u)
					break
				}
				// Accumulated rounding can push x past every weight;
				// the last positive-degree vertex absorbs it.
				if deg[u] > 0 {
					w = graph.Vertex(u)
				}
			}
			b.AddEdge(v, w)
		}
		for i := 0; i < c.M; i++ {
			from, to := b.Endpoints(graph.EdgeID(base + i))
			deg[from]++
			deg[to]++
			total += eta[from] + eta[to]
		}
	}
	return b.Freeze(), nil
}

// TestPowerLawTail checks the model's known scale-free behavior: the
// Bianconi–Barabási degree distribution keeps a power-law tail whose
// exponent sits below pure BA's 3 (fitness fattens the tail; with
// uniform fitness the literature value is ≈ 2.25 plus logarithmic
// corrections, and the bounded-fitness variant here lands between
// that and 3).
func TestPowerLawTail(t *testing.T) {
	if testing.Short() {
		t.Skip("tail fit is not short")
	}
	cfg := Config{N: 1 << 15, M: 2, Eta0: 0.1}
	g, err := cfg.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := stats.FitPowerLawAuto(g.Degrees()[1:], 50)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha < 1.8 || fit.Alpha > 3.2 {
		t.Errorf("fitted tail exponent %.3f ± %.3f outside the plausible fitness band (1.8, 3.2)", fit.Alpha, fit.StdErr)
	}
}

// BenchmarkGenerate measures the Bianconi–Barabási production path:
// the O(1) endpoint-array rejection sampler, with and without scratch
// reuse (the O(n)-per-draw exact-inversion reference is validated by
// chi-square in the tests but is quadratic, so it stays out of the
// benchmark). -short drops to a smoke size for CI.
func BenchmarkGenerate(b *testing.B) {
	n := 1 << 18
	if testing.Short() {
		n = 1 << 13
	}
	cfg := Config{N: n, M: 2, Eta0: 0.1}
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
