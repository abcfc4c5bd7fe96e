package sweep

import (
	"strings"
	"testing"

	"scalefree/internal/engine"
)

// TestCacheKeyKnownAnswers pins CacheKey's and Fingerprint's values. A
// cache entry is addressed by its key alone, so a key that changes for
// the same (experiment, fingerprint, trial) silently orphans every
// cache written before it. The cases cover empty fields, strings whose
// length takes two varint bytes, and seeds and indices at the varint
// boundaries.
func TestCacheKeyKnownAnswers(t *testing.T) {
	fp := Fingerprint("E1", "seed=2024/scale=1", makeTrials(3))
	fingerprints := []struct {
		got, want string
	}{
		{fp, "196e096fea435f1aa3903b025bfdabe67482c6beb6d3a584bb06adf9eb3ae212"},
		{Fingerprint("", "", nil), "ab8e0fb96e2603017dc23c055c750472a00782562a29fefbe4a716015626699f"},
		{Fingerprint("E9", strings.Repeat("p", 300), []engine.Trial{{Index: 1 << 20, Key: strings.Repeat("q", 129), Seed: 1 << 63}}),
			"ddd2698b58b53d572e11eb33c3cec2405b8dd747966831f552c0b41063df36ee"},
	}
	for i, tc := range fingerprints {
		if tc.got != tc.want {
			t.Errorf("fingerprint %d = %s, want %s", i, tc.got, tc.want)
		}
	}

	cases := []struct {
		expID, fingerprint string
		trial              engine.Trial
		want               string
	}{
		{"E1", fp, engine.Trial{Index: 0, Key: "t/0", Seed: 1000},
			"73d465781ec459b0db57f7f33082c07098a20b263c65c6e770b543d493d3b4d8"},
		{"", "", engine.Trial{},
			"fa8e1e2fefe9c8a8facc181f1c1409f456fc0518e1842932832a005a0986f7e3"},
		{"E3", fp, engine.Trial{Index: 7, Key: strings.Repeat("k", 200), Seed: 127},
			"3cee4b8fe5e32df617da9c047bb12612ae7b063856dd348c0686b145e7abf82f"},
		{"E11", "x", engine.Trial{Index: 1, Key: "cell/n=8192/rep=3", Seed: 128},
			"53076031529e9fc699f7bc1f753d8f76ae0ebf58c589044956db85582644f65d"},
		{"E4", fp, engine.Trial{Index: 2, Key: "a", Seed: ^uint64(0)},
			"a91f9284c3d9cfb204db420eb1eb194f8689827d6aca7a386593cb8d3d0a1520"},
	}
	for i, tc := range cases {
		got := CacheKey(tc.expID, tc.fingerprint, tc.trial)
		if got != tc.want {
			t.Errorf("case %d: CacheKey(%q, %.8s…, %.16q/%d) = %s, want %s",
				i, tc.expID, tc.fingerprint, tc.trial.Key, tc.trial.Seed, got, tc.want)
		}
	}
	// The plan position is not part of the address.
	moved := cases[0].trial
	moved.Index = 99
	if got := CacheKey("E1", fp, moved); got != cases[0].want {
		t.Errorf("CacheKey depends on the trial index: %s", got)
	}
}

// TestHashingAllocsFlat: CacheKey and Fingerprint allocate a fixed
// handful per call (the hash state, the field buffer, the sum and its
// hex string), however many fields they hash. The field buffer is
// reused, so a plan of 1,000 trials allocates no more than one of 10.
func TestHashingAllocsFlat(t *testing.T) {
	small, large := makeTrials(10), makeTrials(1000)
	fp := Fingerprint("E1", "seed=2024/scale=1", small)
	const bound = 6
	for i := 0; i < 5; i++ {
		if a := testing.AllocsPerRun(1, func() { CacheKey("E1", fp, small[3]) }); a > bound {
			t.Errorf("CacheKey allocates %v times, want at most %d", a, bound)
		}
		fewer := testing.AllocsPerRun(1, func() { Fingerprint("E1", "p", small) })
		more := testing.AllocsPerRun(1, func() { Fingerprint("E1", "p", large) })
		if fewer > bound || more != fewer {
			t.Errorf("Fingerprint allocates %v times over 10 trials and %v over 1,000, want the same count, at most %d", fewer, more, bound)
		}
	}
}
