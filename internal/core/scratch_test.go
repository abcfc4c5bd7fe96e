package core

import (
	"testing"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/mori"
	"scalefree/internal/search"
)

// TestMeasureOneScratchMatchesFresh pins the determinism contract of
// the scratch path: reusing one worker scratch across replications
// must reproduce the scratch-free outcomes bit for bit, for both graph
// models and both knowledge models.
func TestMeasureOneScratchMatchesFresh(t *testing.T) {
	gens := []struct {
		name string
		gen  GraphGen
	}{
		{"mori", MoriGen(mori.Config{N: 80, M: 2, P: 0.5})},
		{"cf", CooperFriezeGen(cooperfrieze.Config{
			N: 120, Alpha: 0.7, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true})},
	}
	algos := []struct {
		name string
		alg  search.Algorithm
	}{
		{"weak", search.NewDegreeGreedyWeak()},
		{"strong", search.NewDegreeGreedyStrong()},
	}
	for _, g := range gens {
		for _, a := range algos {
			spec := SearchSpec{Algorithm: a.alg, Reps: 6, Seed: 99, Budget: 5000}
			s := NewScratch()
			for rep := 0; rep < spec.Reps; rep++ {
				want, err := MeasureOne(g.gen, spec, rep)
				if err != nil {
					t.Fatalf("%s/%s rep %d: %v", g.name, a.name, rep, err)
				}
				got, err := MeasureOneScratch(g.gen, spec, rep, s)
				if err != nil {
					t.Fatalf("%s/%s rep %d (scratch): %v", g.name, a.name, rep, err)
				}
				if want != got {
					t.Errorf("%s/%s rep %d: fresh %+v != scratch %+v", g.name, a.name, rep, want, got)
				}
			}
		}
	}
}

// TestMeasureOneScratchAllocsBounded pins the trial hot path: a
// repeated fixed-size Móri trial through one scratch allocates
// nothing — generator, oracle, RNGs and the search algorithm's own
// working state all live in the scratch.
func TestMeasureOneScratchAllocsBounded(t *testing.T) {
	gen := MoriGen(mori.Config{N: 400, M: 1, P: 0.5})
	spec := SearchSpec{Algorithm: search.NewDegreeGreedyWeak(), Reps: 1, Seed: 7}
	s := NewScratch()
	run := func() {
		if _, err := MeasureOneScratch(gen, spec, 0, s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run() // converge the arenas
	}
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("allocs per trial: %v", allocs)
	if allocs > 0 {
		t.Errorf("scratch trial allocates %v times per replication, want 0", allocs)
	}
}
