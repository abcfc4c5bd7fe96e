package core

import (
	"math"
	"testing"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/mori"
	"scalefree/internal/search"
)

func TestMeasureSearchValidation(t *testing.T) {
	gen := MoriGen(mori.Config{N: 10, M: 1, P: 0.5})
	s := NewScratch()
	if _, err := MeasureSearch(gen, SearchSpec{Reps: 5}, s); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := MeasureSearch(gen, SearchSpec{Algorithm: search.NewFlood(), Reps: 0}, s); err == nil {
		t.Error("zero reps accepted")
	}
	if _, err := MeasureOne(gen, SearchSpec{Reps: 1}, 0, s); err == nil {
		t.Error("MeasureOne accepted a nil algorithm")
	}
}

func TestMeasureSearchFloodOnMori(t *testing.T) {
	gen := MoriGen(mori.Config{N: 200, M: 1, P: 0.5})
	m, err := MeasureSearch(gen, SearchSpec{
		Algorithm: search.NewFlood(),
		Reps:      16,
		Seed:      42,
	}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if m.FoundRate != 1 {
		t.Errorf("flood found rate %v on connected trees", m.FoundRate)
	}
	if m.Requests.N != 16 {
		t.Errorf("summary over %d runs, want 16", m.Requests.N)
	}
	// Flood resolves every edge at most once: at most n-1 requests.
	if m.Requests.Max > 199 {
		t.Errorf("flood max requests %v exceeds edge count", m.Requests.Max)
	}
	if m.Algorithm != "flood" || m.Knowledge != search.Weak {
		t.Errorf("metadata wrong: %+v", m)
	}
}

func TestMeasureSearchDeterminism(t *testing.T) {
	gen := MoriGen(mori.Config{N: 150, M: 2, P: 0.7})
	spec := SearchSpec{Algorithm: search.NewRandomWalk(), Reps: 8, Seed: 7, Budget: 10000}
	a, err := MeasureSearch(gen, spec, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureSearch(gen, spec, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests.Mean != b.Requests.Mean || a.FoundRate != b.FoundRate {
		t.Errorf("same seed gave different measurements: %+v vs %+v", a, b)
	}
}

// TestMeasureOneMatchesMeasureSearch pins the per-replication
// decomposition: MeasureSearch must be exactly the ordered sequence of
// MeasureOne outcomes, whichever scratch each replication runs on.
func TestMeasureOneMatchesMeasureSearch(t *testing.T) {
	spec := SearchSpec{
		Algorithm: search.NewDegreeGreedyWeak(),
		Reps:      6,
		Seed:      99,
	}
	gen := MoriGen(mori.Config{N: 128, M: 1, P: 0.5})
	m, err := MeasureSearch(gen, spec, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < spec.Reps; rep++ {
		o, err := MeasureOne(gen, spec, rep, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if o.Requests != m.Samples[rep] {
			t.Errorf("rep %d: MeasureOne requests %v != MeasureSearch sample %v",
				rep, o.Requests, m.Samples[rep])
		}
	}
}

func TestMeasureSearchBudgetCensoring(t *testing.T) {
	gen := MoriGen(mori.Config{N: 500, M: 1, P: 0.5})
	m, err := MeasureSearch(gen, SearchSpec{
		Algorithm: search.NewRandomWalk(),
		Reps:      8,
		Seed:      3,
		Budget:    5,
	}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests.Max > 5 {
		t.Errorf("censored max %v exceeds budget", m.Requests.Max)
	}
}

func TestMeasureSearchCooperFrieze(t *testing.T) {
	cfg := cooperfrieze.Config{N: 150, Alpha: 0.8, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
	m, err := MeasureSearch(CooperFriezeGen(cfg), SearchSpec{
		Algorithm: search.NewDegreeGreedyWeak(),
		Reps:      8,
		Seed:      11,
	}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if m.FoundRate != 1 {
		t.Errorf("found rate %v on connected CF graphs with unlimited budget", m.FoundRate)
	}
}

func TestTheorem1BoundValues(t *testing.T) {
	// The bound is |V|·P(E)/2 with P(E) in [e^{-(1-p)}, 1]: for p = 1
	// it equals exactly ⌊√(n-2)⌋/2.
	b, err := Theorem1Bound(10002, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-50) > 0.5 {
		t.Errorf("Theorem1Bound(10002, 1) = %v, want ≈50", b)
	}
	lo, err := Theorem1Bound(10002, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= b || lo < b*math.Exp(-0.75)-1 {
		t.Errorf("Theorem1Bound at p=0.25 = %v out of expected band (p=1 gives %v)", lo, b)
	}
	if _, err := Theorem1Bound(2, 0.5); err == nil {
		t.Error("n=2 accepted")
	}
}

func TestStrongModelExponent(t *testing.T) {
	cases := map[float64]float64{0.1: 0.4, 0.25: 0.25, 0.5: 0, 0.9: 0}
	for p, want := range cases {
		if got := StrongModelExponent(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("StrongModelExponent(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestAdamicExponents(t *testing.T) {
	// At k = 2 both exponents vanish (searchable in O(1) scaling); at
	// k = 3 they are 2/3 and 1.
	if got := AdamicGreedyExponent(2); math.Abs(got) > 1e-12 {
		t.Errorf("greedy exponent at k=2: %v", got)
	}
	if got := AdamicWalkExponent(3); math.Abs(got-1) > 1e-12 {
		t.Errorf("walk exponent at k=3: %v", got)
	}
	k := 2.5
	if AdamicGreedyExponent(k) >= AdamicWalkExponent(k) {
		t.Error("greedy exponent should be smaller than walk exponent")
	}
}
