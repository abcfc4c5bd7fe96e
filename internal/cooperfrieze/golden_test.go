package cooperfrieze

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// TestGenerateGolden pins the generator's output to digests recorded
// before its steps were split into the draw functions it shares with
// DrawsAtMost. A change to a shared draw moves the generator and the
// pass together, which TestCFEventPassMatchesCheckEventCF (package
// equivalence) cannot see; this test does. Each digest is a SHA-256
// over four seeds' Steps, OldSteps, edge list and ArrivalOutDeg, and
// the generator's next Uint64 after each graph.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"e3-alpha-0.5", Config{Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true},
			"ee48a9c2e5cad3971ba85471baa5619b0d22bbcbb6448658cb9fac1a81b9675d"},
		{"e3-alpha-0.8", Config{Alpha: 0.8, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true},
			"df0b47fc3b8602797b94e8bd5847822e12a3085d7e6e4ac58fd0e5dc666184cc"},
		{"coins-0-and-1", Config{Alpha: 0.5, Beta: 1, Gamma: 0, Delta: 1},
			"84eb9432a4df3b2cca07b259746e8f2b063156a82b25ebf28769ec447c05b27c"},
		{"retry-fallback", Config{Alpha: 0.5, Beta: 1, Gamma: 1, Delta: 0},
			"43a02d54695d260de0b139fe93803e848f103a318cfda4b4aeb5fbba2544c127"},
		{"two-weights", Config{Alpha: 0.6, Beta: 0.3, Gamma: 0.7, Delta: 0.2, QWeights: []float64{1, 1}, PWeights: []float64{2, 1}},
			"6d4a0594d2b237e427f4182d05dd8783f70ca09d30337a925d3bfdafb0e4cd3a"},
	} {
		tc.cfg.N = 300
		h := sha256.New()
		put := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
		for seed := uint64(1); seed <= 4; seed++ {
			r := rng.New(seed)
			res, err := tc.cfg.Generate(r)
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(res.Steps))
			put(uint64(res.OldSteps))
			for e := 0; e < res.Graph.NumEdges(); e++ {
				u, v := res.Graph.Endpoints(graph.EdgeID(e))
				put(uint64(u))
				put(uint64(v))
			}
			for _, d := range res.ArrivalOutDeg {
				put(uint64(d))
			}
			put(r.Uint64())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: digest %s, recorded %s", tc.name, got, tc.want)
		}
	}
}
