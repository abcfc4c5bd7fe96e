package mori

import (
	"fmt"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
	"scalefree/internal/weights"
)

// graphsEqual compares two graphs edge by edge (same builder insertion
// order implies same EdgeIDs).
func graphsEqual(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for e := 0; e < a.NumEdges(); e++ {
		af, at := a.Endpoints(graph.EdgeID(e))
		bf, bt := b.Endpoints(graph.EdgeID(e))
		if af != bf || at != bt {
			return false
		}
	}
	return true
}

func TestGenerateScratchMatchesGenerate(t *testing.T) {
	cfg := Config{N: 150, M: 2, P: 0.6}
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
		if !graphsEqual(want, got) {
			t.Fatalf("seed %d: scratch generation diverges from Generate", seed)
		}
	}
}

func TestGenerateTreeScratchMatchesGenerateTree(t *testing.T) {
	var s Scratch
	for seed := uint64(1); seed <= 5; seed++ {
		want, err := GenerateTree(rng.New(seed), 200, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GenerateTreeScratch(rng.New(seed), 200, 0.4, &s)
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 200; k++ {
			if want.Fathers[k] != got.Fathers[k] {
				t.Fatalf("seed %d: fathers diverge at vertex %d", seed, k)
			}
		}
	}
}

// TestGenerateScratchAllocFree pins the steady state of the scratch
// path: after a warm-up generation, repeated same-size draws perform
// zero allocations.
func TestGenerateScratchAllocFree(t *testing.T) {
	cfg := Config{N: 500, M: 2, P: 0.5}
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

// GenerateTreeFenwick is the historical O(n log n) generator drawing
// the preferential vertex from a Fenwick tree over indegrees. It
// samples exactly the same distribution as GenerateTree and is kept as
// the reference implementation for the chi-square equivalence test and
// the sampler ablation (BenchmarkGenerateTree, DESIGN.md §5.2); the two
// consume RNG streams differently, so equal seeds yield different
// (identically distributed) trees.
func GenerateTreeFenwick(r *rng.RNG, size int, p float64) (*Tree, error) {
	if size < 2 {
		return nil, fmt.Errorf("mori: tree size %d < 2", size)
	}
	if err := validateP(p); err != nil {
		return nil, err
	}
	t := &Tree{P: p, Fathers: make([]graph.Vertex, size+1)}
	t.Fathers[2] = 1
	indeg := weights.NewFenwick(size)
	indeg.Add(1, 1) // the initial edge 2 → 1
	for k := 3; k <= size; k++ {
		prefMass := p * float64(k-2)
		unifMass := (1 - p) * float64(k-1)
		var u graph.Vertex
		if r.Float64()*(prefMass+unifMass) < prefMass {
			u = graph.Vertex(indeg.Sample(r))
		} else {
			u = graph.Vertex(r.IntRange(1, k-1))
		}
		t.Fathers[k] = u
		indeg.Add(int(u), 1)
	}
	return t, nil
}

// TestEndpointMatchesFenwickDistribution is the sampler-swap safety
// net: the O(1) endpoint-array generator and the O(log n) Fenwick
// reference must draw indegree distributions that a two-sample
// chi-square test cannot tell apart.
func TestEndpointMatchesFenwickDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution comparison is not short")
	}
	const (
		size = 400
		reps = 300
		bins = 7 // indegrees 0..5 and >= 6
	)
	for _, p := range []float64{0.3, 0.75, 1.0} {
		histEndpoint := make([]int, bins)
		histFenwick := make([]int, bins)
		for rep := 0; rep < reps; rep++ {
			te, err := GenerateTree(rng.New(rng.DeriveSeed(11, uint64(rep))), size, p)
			if err != nil {
				t.Fatal(err)
			}
			tf, err := GenerateTreeFenwick(rng.New(rng.DeriveSeed(12, uint64(rep))), size, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range te.InDegreesInto(nil)[1:] {
				histEndpoint[min(d, bins-1)]++
			}
			for _, d := range tf.InDegreesInto(nil)[1:] {
				histFenwick[min(d, bins-1)]++
			}
		}
		res, err := stats.ChiSquareTwoSample(histEndpoint, histFenwick)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 1e-3 {
			t.Errorf("p=%v: endpoint vs Fenwick indegree distributions differ: chi2=%.2f df=%d p-value=%g\nendpoint: %v\nfenwick:  %v",
				p, res.Statistic, res.DF, res.PValue, histEndpoint, histFenwick)
		}
	}
}
