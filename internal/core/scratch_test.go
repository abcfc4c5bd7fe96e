package core

import (
	"testing"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/mori"
	"scalefree/internal/search"
)

// TestMeasureOneScratchMatchesFresh pins the determinism contract the
// engine relies on: one worker scratch, left dirty by earlier trials of
// other models, knowledge models and sizes, must reproduce the outcomes
// of a fresh scratch per replication bit for bit.
func TestMeasureOneScratchMatchesFresh(t *testing.T) {
	cf := func(n int) GraphGen {
		return CooperFriezeGen(cooperfrieze.Config{
			N: n, Alpha: 0.7, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true})
	}
	// Sizes alternate between models and shrink as well as grow, so the
	// shared scratch's buffers are reused at every other size.
	gens := []struct {
		name string
		gen  GraphGen
	}{
		{"mori/n=80", MoriGen(mori.Config{N: 80, M: 2, P: 0.5})},
		{"cf/n=60", cf(60)},
		{"mori/n=40", MoriGen(mori.Config{N: 40, M: 2, P: 0.5})},
		{"cf/n=120", cf(120)},
	}
	algos := []struct {
		name string
		alg  search.Algorithm
	}{
		{"weak", search.NewDegreeGreedyWeak()},
		{"strong", search.NewDegreeGreedyStrong()},
	}
	shared := NewScratch()
	for _, g := range gens {
		for _, a := range algos {
			spec := SearchSpec{Algorithm: a.alg, Reps: 6, Seed: 99, Budget: 5000}
			for rep := 0; rep < spec.Reps; rep++ {
				want, err := MeasureOne(g.gen, spec, rep, NewScratch())
				if err != nil {
					t.Fatalf("%s/%s rep %d: %v", g.name, a.name, rep, err)
				}
				got, err := MeasureOne(g.gen, spec, rep, shared)
				if err != nil {
					t.Fatalf("%s/%s rep %d (shared scratch): %v", g.name, a.name, rep, err)
				}
				if want != got {
					t.Errorf("%s/%s rep %d: fresh %+v != shared %+v", g.name, a.name, rep, want, got)
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
		if _, err := MeasureOne(gen, spec, 0, s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run() // converge the arenas
	}
	for i := 0; i < 10; i++ {
		if allocs := testing.AllocsPerRun(1, run); allocs > 0 {
			t.Errorf("scratch trial run %d allocates %v times, want 0", i, allocs)
			break
		}
	}
}
