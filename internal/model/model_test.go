package model

import (
	"strings"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// smallParams instantiates each family at a test-sized workload; every
// registered family must have an entry (the conformance test fails
// loudly otherwise, so adding a model forces a conformance row).
var smallParams = map[string]string{
	"mori":      "n=300,m=2,p=0.5",
	"cf":        "n=300,alpha=0.7",
	"ba":        "n=300,m=2",
	"config":    "n=300,k=2.3",
	"kleinberg": "l=16,r=2",
	"fitness":   "n=300,m=2,eta0=0.2",
	"geopa":     "n=300,m=2,r=0.25",
}

// steadyAllocBound pins each family's steady-state allocations per
// scratch-backed generation at the smallParams size. The evolving
// models with scratch generators are zero (cf pays an O(1) handful for
// its out-degree distribution tables); config and kleinberg have no
// scratch path yet, so their pins record the full per-generation cost
// — a regression doubling them should trip the bound.
var steadyAllocBound = map[string]float64{
	"mori":      0,
	"cf":        12,
	"ba":        0,
	"config":    64,
	"kleinberg": 1200,
	"fitness":   0,
	"geopa":     0,
}

// TestRegistryConformance is the registry's contract, checked for
// every registered family: deterministic generation (same seed →
// identical edge list, with and without scratch), scratch reuse within
// the family's allocation pin, and a canonical parameter encoding that
// round-trips through model.New.
func TestRegistryConformance(t *testing.T) {
	fams := Families()
	if len(fams) != 7 {
		t.Fatalf("registry has %d families, want 7 (five historical models + fitness + geopa)", len(fams))
	}
	for _, f := range fams {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			params, ok := smallParams[f.Name]
			if !ok {
				t.Fatalf("no smallParams entry for %s — add one (and a steadyAllocBound) when registering a model", f.Name)
			}
			bound, ok := steadyAllocBound[f.Name]
			if !ok {
				t.Fatalf("no steadyAllocBound entry for %s", f.Name)
			}
			m, err := New(f.Name, params)
			if err != nil {
				t.Fatal(err)
			}

			// Determinism: equal seeds yield identical edge lists,
			// scratch-free and scratch-backed alike.
			fresh, err := m.Generate(rng.New(42), nil)
			if err != nil {
				t.Fatal(err)
			}
			again, err := m.Generate(rng.New(42), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !graph.Equal(fresh, again) {
				t.Error("equal seeds yield different graphs")
			}
			var s Scratch
			scratched, err := m.Generate(rng.New(42), &s)
			if err != nil {
				t.Fatal(err)
			}
			if !graph.Equal(fresh, scratched) {
				t.Error("scratch-backed generation diverges from scratch-free")
			}

			// Scratch reuse: the steady state stays within the
			// family's allocation pin.
			r := rng.New(7)
			gen := func() {
				if _, err := m.Generate(r, &s); err != nil {
					t.Fatal(err)
				}
			}
			gen() // warm up
			for i := 0; i < 5; i++ {
				if allocs := testing.AllocsPerRun(1, gen); allocs > bound {
					t.Errorf("steady-state generation run %d allocates %v times, pin is %v", i, allocs, bound)
					break
				}
			}

			// Canonical parameter encoding round-trips: parsing a
			// model's own Params reproduces it exactly.
			if m.Name() != f.Name {
				t.Errorf("Name() = %q, want %q", m.Name(), f.Name)
			}
			back, err := New(m.Name(), m.Params())
			if err != nil {
				t.Fatalf("canonical encoding %q does not re-parse: %v", m.Params(), err)
			}
			if back.Params() != m.Params() {
				t.Errorf("canonical encoding does not round-trip: %q -> %q", m.Params(), back.Params())
			}
			// And the round-tripped instance generates the same graph.
			rt, err := back.Generate(rng.New(42), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !graph.Equal(fresh, rt) {
				t.Error("round-tripped model generates a different graph")
			}

			// Defaults alone must build a valid model (the CLIs rely
			// on it).
			if _, err := New(f.Name, ""); err != nil {
				t.Errorf("defaults do not build: %v", err)
			}
		})
	}
}

// TestNewRejectsBadInput pins the parse/validation diagnostics the
// CLIs surface.
func TestNewRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, params string
		want         string // substring of the diagnostic
	}{
		{"nosuch", "", "unknown model"},
		{"mori", "bogus=1", "no parameter"},
		{"mori", "p", "malformed"},
		{"mori", "p=", "malformed"},
		{"mori", "p=high", "not a number"},
		{"mori", "n=many", "not an integer"},
		{"mori", "n=2.5", "not an integer"},
		{"cf", "loops=maybe", "not a boolean"},
		{"mori", "p=2", "out of"},
		{"mori", "n=1", "< 2"},
		{"fitness", "eta0=0", "out of"},
		{"fitness", "eta0=1e-9", "floor"},
		{"geopa", "r=-1", "positive"},
		{"geopa", "r=0.001", "floor"},
		{"config", "k=0.5", "exceed 1"},
		{"kleinberg", "l=1", "< 2"},
		{"kleinberg", "l=8,r=NaN", "not a number"},
		{"geopa", "r=nan", "not a number"},
		{"cf", "alpha=1e999", "not a number"},
		{"cf", "n=3,alpha=1e-9", "2^30"},
	}
	for _, tc := range cases {
		_, err := New(tc.name, tc.params)
		if err == nil {
			t.Errorf("New(%q, %q) accepted invalid input", tc.name, tc.params)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%q, %q) diagnostic %q does not mention %q", tc.name, tc.params, err, tc.want)
		}
	}

	// Unknown-model diagnostics list the registry so the operator can
	// self-serve.
	_, err := New("nosuch", "")
	if err == nil || !strings.Contains(err.Error(), "mori") || !strings.Contains(err.Error(), "fitness") {
		t.Errorf("unknown-model diagnostic %v does not list registered names", err)
	}
}

// TestParseNormalization: whitespace and empty segments are tolerated,
// defaults fill unset parameters, and canonical output is declaration-
// ordered regardless of input order.
func TestParseNormalization(t *testing.T) {
	a, err := New("mori", " p=0.25 , n=128 ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("mori", "n=128,p=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if a.Params() != b.Params() {
		t.Errorf("parameter order leaks into the canonical encoding: %q vs %q", a.Params(), b.Params())
	}
	if want := "n=128,m=1,p=0.25"; a.Params() != want {
		t.Errorf("canonical encoding = %q, want %q", a.Params(), want)
	}
}
