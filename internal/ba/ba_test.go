package ba

import (
	"math"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

func TestValidate(t *testing.T) {
	for _, c := range []Config{{N: 1, M: 1}, {N: 10, M: 0}} {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
	if err := (Config{N: 2, M: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestGenerateCountsAndConnectivity(t *testing.T) {
	for _, m := range []int{1, 3} {
		g, err := Config{N: 1000, M: m}.Generate(rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() != 1000 {
			t.Fatalf("m=%d: vertices = %d", m, g.NumVertices())
		}
		if want := 1 + m*999; g.NumEdges() != want {
			t.Fatalf("m=%d: edges = %d, want %d", m, g.NumEdges(), want)
		}
		if !graph.IsConnected(g) {
			t.Fatalf("m=%d: BA graph disconnected", m)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Config{N: 500, M: 2}.Generate(rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Config{N: 500, M: 2}.Generate(rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(a, b) {
		t.Fatal("same seed produced different graphs")
	}
}

func TestEdgesPointToOlderVertices(t *testing.T) {
	g, err := Config{N: 400, M: 2}.Generate(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e < g.NumEdges(); e++ { // edge 0 is the seed loop
		u, v := g.Endpoints(graph.EdgeID(e))
		if v > u {
			t.Fatalf("edge %d points from %d to younger vertex %d", e, u, v)
		}
	}
}

func TestDegreeDistributionPowerLaw(t *testing.T) {
	// BA degree distribution has exponent ~3.
	g, err := Config{N: 20000, M: 2}.Generate(rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := stats.FitPowerLaw(g.Degrees()[1:], 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-3) > 0.5 {
		t.Errorf("BA exponent = %v (se %v), want ~3", fit.Alpha, fit.StdErr)
	}
}

func TestMaxDegreeOrderSqrtN(t *testing.T) {
	// BA hubs grow like n^(1/2): the fitted growth exponent across a
	// size sweep should be near 0.5 (wide tolerance; single seed per
	// size keeps the test fast).
	var ns, maxes []float64
	for _, n := range []int{2000, 4000, 8000, 16000, 32000} {
		best := 0.0
		for rep := uint64(0); rep < 5; rep++ {
			g, err := Config{N: n, M: 1}.Generate(rng.New(rng.DeriveSeed(100, uint64(n)*10+rep)))
			if err != nil {
				t.Fatal(err)
			}
			best += float64(g.MaxDegree())
		}
		ns = append(ns, float64(n))
		maxes = append(maxes, best/5)
	}
	fit, err := stats.FitScaling(ns, maxes)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Exponent < 0.3 || fit.Exponent > 0.7 {
		t.Errorf("BA max-degree exponent = %v (R²=%v), want ~0.5", fit.Exponent, fit.R2)
	}
}

func TestGenerateScratchMatchesGenerate(t *testing.T) {
	cfg := Config{N: 300, M: 2}
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
	cfg := Config{N: 500, M: 2}
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

func BenchmarkGenerate(b *testing.B) {
	r := rng.New(1)
	cfg := Config{N: 1 << 13, M: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Generate(r); err != nil {
			b.Fatal(err)
		}
	}
}
