package search

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// searchGoldenDigest is the SHA-256 of every (Result, request trace)
// pair TestSearchGolden produces. It pins each registered algorithm
// draw for draw: a rewrite of the oracle or of a search that changes a
// single RNG draw, chosen slot, or heap pop changes the digest. Never
// re-record it to make a performance change pass.
const searchGoldenDigest = "88ec922a3ed96037c04f02fab43d51057d75f11426dba6214414cceb710baa07"

// goldenGraphs returns the graph families of the search golden: Móri
// graphs for p ∈ {0, 0.5, 1} and m ∈ {1, 2} (m = 2 merges in loops and
// parallel edges), plus a Cooper–Frieze graph with AllowLoops, whose
// Old steps add further self-loops and multi-edges.
func goldenGraphs(t *testing.T, seed uint64) []*graph.Graph {
	t.Helper()
	const n = 300
	var gs []*graph.Graph
	for _, p := range []float64{0, 0.5, 1} {
		for _, m := range []int{1, 2} {
			g, err := mori.Config{N: n, M: m, P: p}.Generate(rng.New(rng.DeriveSeed(seed, uint64(len(gs)))))
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
	}
	cf, err := cooperfrieze.Config{
		N: n, Alpha: 0.6, Beta: 0.5, Gamma: 0.5, Delta: 0.3,
		QWeights: []float64{1, 1}, PWeights: []float64{1, 1, 1},
		AllowLoops: true,
	}.Generate(rng.New(rng.DeriveSeed(seed, uint64(len(gs)))))
	if err != nil {
		t.Fatal(err)
	}
	return append(gs, cf.Graph)
}

// hashSearch folds one search's identity, outcome, and full trace into h.
func hashSearch(h hash.Hash, name string, res Result, trace []TraceEvent) {
	var b [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	flag := func(x bool) {
		if x {
			put(1)
		} else {
			put(0)
		}
	}
	h.Write([]byte(name))
	flag(res.Found)
	put(int64(res.Requests))
	put(int64(len(trace)))
	for _, ev := range trace {
		put(int64(ev.Seq))
		put(int64(ev.Kind))
		put(int64(ev.Subject))
		put(int64(ev.Slot))
		put(int64(ev.Revealed))
		flag(ev.Found)
	}
}

// TestSearchGolden hashes (Result, trace) for every algorithm of
// WeakAlgorithms and StrongAlgorithms over the golden graph families,
// 8 seeds each, under two request budgets, through both a fresh and a
// scratch-backed shuffled oracle, and compares the digest with
// searchGoldenDigest. Every algorithm must exhaust the small budget
// somewhere and find the target somewhere, so the budgets bind.
func TestSearchGolden(t *testing.T) {
	fresh, reused := sha256.New(), sha256.New()
	var s Scratch
	algs := append(WeakAlgorithms(), StrongAlgorithms()...)
	exhausted := make([]bool, len(algs))
	found := make([]bool, len(algs))
	for seed := uint64(1); seed <= 8; seed++ {
		for gi, g := range goldenGraphs(t, seed) {
			n := g.NumVertices()
			start := graph.Vertex(1 + (int(seed)*37+gi*11)%n)
			target := graph.Vertex(n)
			shuffle := rng.DeriveSeed(seed, uint64(100+gi))
			walk := rng.DeriveSeed(seed, uint64(200+gi))
			for _, budget := range []int{20, 150} {
				for ai, a := range algs {
					for pass, h := range []hash.Hash{fresh, reused} {
						var o *Oracle
						var err error
						if pass == 0 {
							o, err = NewOracleShuffled(g, start, target, a.Knowledge(), shuffle)
						} else {
							o, err = NewOracleShuffledScratch(g, start, target, a.Knowledge(), shuffle, &s)
						}
						if err != nil {
							t.Fatal(err)
						}
						o.EnableTrace()
						res, err := a.Search(o, rng.New(walk), budget)
						if err != nil {
							t.Fatalf("%s: %v", a.Name(), err)
						}
						if res.Requests > budget {
							t.Fatalf("%s overspent: %d requests on budget %d", a.Name(), res.Requests, budget)
						}
						if budget == 20 && !res.Found && res.Requests == budget {
							exhausted[ai] = true
						}
						found[ai] = found[ai] || res.Found
						hashSearch(h, a.Name(), res, o.Trace())
					}
				}
			}
		}
	}
	for ai, a := range algs {
		if !exhausted[ai] || !found[ai] {
			t.Errorf("%s: budgets do not bind (exhausted somewhere %v, found somewhere %v)", a.Name(), exhausted[ai], found[ai])
		}
	}
	got, gotScratch := hex.EncodeToString(fresh.Sum(nil)), hex.EncodeToString(reused.Sum(nil))
	if got != gotScratch {
		t.Fatalf("scratch-backed searches diverge from fresh ones: digest %s vs %s", gotScratch, got)
	}
	if got != searchGoldenDigest {
		t.Errorf("search golden digest = %s, want %s", got, searchGoldenDigest)
	}
}
