package model

import (
	"strings"
	"testing"
)

// FuzzModelNew drives New, the parser behind every CLI's -model and
// -params flags, with arbitrary (family, params) pairs. New must never
// panic; an instance it accepts must re-parse from its canonical
// Params() to the same Params(); and no accepted Params() may hold NaN,
// which no generator can honour. The seeds are every family's
// defaults, spelled out and implied, the documented -params examples,
// and NaN for a parameter whose range check alone let it through.
func FuzzModelNew(f *testing.F) {
	for _, fam := range Families() {
		f.Add(fam.Name, "")
		spelled := make([]string, len(fam.Params))
		for i, p := range fam.Params {
			spelled[i] = p.Name + "=" + p.DefaultString()
		}
		f.Add(fam.Name, strings.Join(spelled, ","))
	}
	for _, ex := range [][2]string{
		{"cf", "n=16384,alpha=0.8"},
		{"config", "n=10000,k=2.3,giant=true"},
		{"fitness", "n=100000,m=2,eta0=0.1"},
		{"geopa", "n=65536,m=2,r=0.25"},
		{"kleinberg", "l=64,r=2"},
		{"mori", "n=1048576,m=2,p=0.5"},
		{"mori", "n=16384,p=0.5,m=1"},
		{"kleinberg", "l=8,r=NaN"},
		{"nosuch", "n=1"},
	} {
		f.Add(ex[0], ex[1])
	}
	f.Fuzz(func(t *testing.T, name, params string) {
		m, err := New(name, params)
		if err != nil {
			return
		}
		canon := m.Params()
		if strings.Contains(canon, "NaN") {
			t.Fatalf("New(%q, %q) accepted %q", name, params, canon)
		}
		back, err := New(m.Name(), canon)
		if err != nil {
			t.Fatalf("canonical %s(%s) of New(%q, %q) does not re-parse: %v", m.Name(), canon, name, params, err)
		}
		if back.Params() != canon {
			t.Fatalf("canonical %q re-parses to %q", canon, back.Params())
		}
	})
}
