package equivalence

import (
	"testing"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// FuzzEventPasses checks both draw-only event passes against their
// references on fuzzed parameters. The Móri half draws a tree of 2 to
// 2048 vertices with p in {0, ¼, ½, ¾, 1} and a window start anywhere in
// [1, size]; the Cooper–Frieze half draws N in [2, 512], each of α, β,
// γ, δ from {0, 0.2, 0.5, 1}, loops on or off, and one or two weights
// in {0, 1, 2, 3} per out-degree table (invalid configurations must
// fail in both). Each pass must equal its reference in verdict, in
// error, and in the next Uint64 of the generator it leaves behind.
// Seed corpora live in testdata/fuzz/FuzzEventPasses.
func FuzzEventPasses(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, pSel uint8, a int, n uint16, coins uint32, loops bool, weights uint16) {
		treeSize := 2 + int(size)%2047
		p := []float64{0, 0.25, 0.5, 0.75, 1}[pSel%5]
		treeA := 1 + int(uint(a)%uint(treeSize))
		ref, pass := rng.New(seed), rng.New(seed)
		tree, err := mori.GenerateTree(ref, treeSize, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CheckEvent(tree, treeA, treeSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mori.FathersAtMost(pass, treeSize, p, treeA)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Móri size %d p %v a %d: pass says %v, CheckEvent says %v", treeSize, p, treeA, got, want)
		}
		if x, y := pass.Uint64(), ref.Uint64(); x != y {
			t.Fatalf("Móri size %d p %v a %d: streams diverge after the draw (%#x vs %#x)", treeSize, p, treeA, x, y)
		}

		levels := []float64{0, 0.2, 0.5, 1}
		coin := func(i int) float64 { return levels[coins>>(2*i)&3] }
		cfg := cooperfrieze.Config{
			N:     2 + int(n)%511,
			Alpha: coin(0), Beta: coin(1), Gamma: coin(2), Delta: coin(3),
			QWeights:   outWeights(uint8(weights)),
			PWeights:   outWeights(uint8(weights >> 8)),
			AllowLoops: loops,
		}
		cfA := 1 + int(uint(a)%uint(cfg.N))
		ref, pass = rng.New(seed), rng.New(seed)
		res, refErr := cfg.GenerateScratch(ref, new(cooperfrieze.Scratch))
		got, passErr := cfg.DrawsAtMost(pass, cfA, nil)
		if (refErr == nil) != (passErr == nil) {
			t.Fatalf("%+v: GenerateScratch error %v, DrawsAtMost error %v", cfg, refErr, passErr)
		}
		if refErr != nil {
			return
		}
		want, err = CheckEventCF(res, cfA, cfg.N)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%+v a %d: pass says %v, CheckEventCF says %v", cfg, cfA, got, want)
		}
		if x, y := pass.Uint64(), ref.Uint64(); x != y {
			t.Fatalf("%+v a %d: streams diverge after the draw (%#x vs %#x)", cfg, cfA, x, y)
		}
	})
}

// outWeights decodes one out-degree table from a byte: bit 0 picks one
// or two weights, and bits 1-2 and 3-4 give them.
func outWeights(b uint8) []float64 {
	ws := []float64{float64(b >> 1 & 3), float64(b >> 3 & 3)}
	return ws[:1+b&1]
}
