package cooperfrieze

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

func defaultConfig(n int) Config {
	return Config{
		N:          n,
		Alpha:      0.7,
		Beta:       0.6,
		Gamma:      0.5,
		Delta:      0.3,
		AllowLoops: true,
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{N: 1, Alpha: 0.5},
		{N: 10, Alpha: 0},
		{N: 10, Alpha: 1.1},
		{N: 10, Alpha: 0.5, Beta: -0.1},
		{N: 10, Alpha: 0.5, Gamma: 1.2},
		{N: 10, Alpha: 0.5, Delta: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v validated", i, c)
		}
	}
	if err := defaultConfig(10).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestValidateBoundsEdgeHint: a configuration whose reserved edge
// count N/Alpha + N/2 reaches 2^30, past what a graph can index, fails
// Validate and names N and Alpha, however small Alpha is; just below
// the bound it passes. Nothing is generated.
func TestValidateBoundsEdgeHint(t *testing.T) {
	for _, c := range []Config{
		{N: 3, Alpha: 1e-9},
		{N: 2, Alpha: 5e-324},
		{N: 1 << 29, Alpha: 0.5},
		{N: 1 << 30, Alpha: 1},
	} {
		err := c.Validate()
		if err == nil {
			t.Errorf("N = %d, Alpha = %v validated", c.N, c.Alpha)
			continue
		}
		for _, want := range []string{fmt.Sprintf("N = %d", c.N), fmt.Sprintf("Alpha = %v", c.Alpha), "2^30"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("diagnostic %q does not mention %q", err, want)
			}
		}
	}
	if err := (Config{N: 1 << 29, Alpha: 1}).Validate(); err != nil {
		t.Errorf("N = 2^29, Alpha = 1 reserves 1.5·2^29 edges and was rejected: %v", err)
	}
}

func TestGenerateBasicInvariants(t *testing.T) {
	res, err := defaultConfig(500).Generate(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.NumVertices() != 500 {
		t.Fatalf("vertices = %d, want 500", g.NumVertices())
	}
	if !graph.IsConnected(g) {
		t.Fatal("Cooper-Frieze graph disconnected")
	}
	if res.Steps < 499 {
		t.Errorf("steps = %d; at least 499 New steps are needed", res.Steps)
	}
	if res.OldSteps != res.Steps-499 {
		t.Errorf("OldSteps = %d inconsistent with Steps = %d", res.OldSteps, res.Steps)
	}
	// Every edge must point to an existing vertex (tail arrived first
	// or it is an Old edge, but both endpoints are <= current count by
	// construction).
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.Endpoints(graph.EdgeID(e))
		if u < 1 || v < 1 || int(u) > 500 || int(v) > 500 {
			t.Fatalf("edge %d has endpoints (%d, %d)", e, u, v)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := defaultConfig(300).Generate(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := defaultConfig(300).Generate(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(a.Graph, b.Graph) {
		t.Fatal("same seed produced different graphs")
	}
}

func TestAlphaOneIsAllNew(t *testing.T) {
	cfg := defaultConfig(200)
	cfg.Alpha = 1
	res, err := cfg.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.OldSteps != 0 {
		t.Errorf("alpha=1 ran %d Old steps", res.OldSteps)
	}
	if res.Steps != 199 {
		t.Errorf("alpha=1 took %d steps, want 199", res.Steps)
	}
	// With q = {1}: exactly one edge per new vertex plus the seed loop.
	if got := res.Graph.NumEdges(); got != 200 {
		t.Errorf("edges = %d, want 200", got)
	}
}

func TestOutDegreeDistributions(t *testing.T) {
	cfg := defaultConfig(400)
	cfg.QWeights = []float64{0, 0, 1} // every New vertex emits exactly 3 edges
	cfg.Alpha = 1
	res, err := cfg.Generate(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	for v := graph.Vertex(2); v <= 400; v++ {
		if got := g.OutDegree(v); got != 3 {
			t.Fatalf("vertex %d out-degree = %d, want 3", v, got)
		}
	}
}

func TestInvalidOutDegreeWeights(t *testing.T) {
	cfg := defaultConfig(10)
	cfg.QWeights = []float64{-1}
	if _, err := cfg.Generate(rng.New(1)); err == nil {
		t.Error("negative QWeights accepted")
	}
	cfg = defaultConfig(10)
	cfg.PWeights = []float64{0}
	if _, err := cfg.Generate(rng.New(1)); err == nil {
		t.Error("zero-total PWeights accepted")
	}
}

func TestNoLoopsWhenDisallowed(t *testing.T) {
	cfg := defaultConfig(300)
	cfg.AllowLoops = false
	res, err := cfg.Generate(rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	// The seed loop on vertex 1 is structural; no other loop may exist.
	if got := res.Graph.NumSelfLoops(); got != 1 {
		t.Errorf("self-loops = %d, want only the seed loop", got)
	}
}

func TestOldStepsAddEdgesNotVertices(t *testing.T) {
	cfg := defaultConfig(100)
	cfg.Alpha = 0.3 // ~70% Old steps
	res, err := cfg.Generate(rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if res.OldSteps == 0 {
		t.Fatal("expected Old steps at alpha=0.3")
	}
	// Edges: seed loop + one per step (all distributions are {1}).
	want := 1 + res.Steps
	if got := res.Graph.NumEdges(); got != want {
		t.Errorf("edges = %d, want %d", got, want)
	}
}

func TestYoungVerticesHaveLowInDegree(t *testing.T) {
	// The age/degree correlation that drives the paper: the last
	// vertices should have much lower indegree than the first ones on
	// average.
	res, err := defaultConfig(2000).Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	oldSum, youngSum := 0, 0
	for v := graph.Vertex(1); v <= 100; v++ {
		oldSum += g.InDegree(v)
	}
	for v := graph.Vertex(1901); v <= 2000; v++ {
		youngSum += g.InDegree(v)
	}
	if oldSum <= 3*youngSum {
		t.Errorf("oldest 100 vertices indegree %d vs youngest 100 %d; expected strong age bias", oldSum, youngSum)
	}
}

func TestDegreeDistributionHeavyTail(t *testing.T) {
	// Power-law sanity: the CF degree distribution should be heavy
	// tailed — a hub far above the mean and a near-linear log-log CCDF.
	res, err := defaultConfig(8000).Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	degs := g.Degrees()[1:]
	mean := stats.Mean(stats.IntsToFloats(degs))
	if max := g.MaxDegree(); float64(max) < 10*mean {
		t.Errorf("max degree %d vs mean %.2f; expected a heavy tail", max, mean)
	}
	ccdf := stats.HistogramOf(degs).CCDF()
	_, r2, err := stats.CCDFLogLogSlope(ccdf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.85 {
		t.Errorf("log-log CCDF R² = %v; expected near power law", r2)
	}
}

// BenchmarkGenerate is the Cooper–Frieze half of the sampler ablation
// (DESIGN.md §5.2): the O(N) endpoint-array production path, with and
// without scratch reuse, against the O(N log N) Fenwick reference at
// n = 2^20; -short drops to a smoke size for CI.
func BenchmarkGenerate(b *testing.B) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	cfg := Config{N: n, Alpha: 0.75, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
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
		// Warm the scratch first, so B/op is the steady state of a
		// reused scratch rather than its first growth.
		var s Scratch
		if _, err := cfg.GenerateScratch(r, &s); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cfg.GenerateScratch(r, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("fenwick/n=%d", n), func(b *testing.B) {
		r := rng.New(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cfg.GenerateFenwick(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
