package main

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/model"
	"scalefree/internal/rng"
)

// TestFlagValidation pins the CLI's rejection of bad flag combinations
// and model selections, mirroring cmd/graphgen's suite: every
// diagnostic must name the offending piece so the operator can
// self-serve from the error alone.
func TestFlagValidation(t *testing.T) {
	reject := []struct {
		name string
		args []string
		want string // substring of the diagnostic
	}{
		// -verify and -params only make sense against the right source.
		{"verify without snapshot", []string{"-verify"}, "-snapshot"},
		{"params with snapshot", []string{"-snapshot", "g.csr", "-params", "n=10"}, "-params"},

		// Unknown model names and bad parameters surface the registry's
		// own diagnostics.
		{"unknown model", []string{"-model", "watts-strogatz"}, "unknown model"},
		{"unknown param", []string{"-model", "mori", "-params", "alpha=0.5"}, "no parameter"},
		{"malformed pair", []string{"-model", "mori", "-params", "p"}, "malformed"},
		{"non-numeric float", []string{"-model", "mori", "-params", "p=high"}, "not a number"},
		{"mori p out of range", []string{"-model", "mori", "-params", "p=2"}, "out of"},
		{"fitness eta0 zero", []string{"-model", "fitness", "-params", "eta0=0"}, "out of"},

		// Thread counts must be sane.
		{"negative threads", []string{"-threads", "-4"}, "negative"},
	}
	for _, tc := range reject {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseOptions(tc.args)
			if err == nil && o.snapshot == "" {
				_, err = o.resolve()
			}
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}

	accept := [][]string{
		{},
		{"-model", "mori", "-params", "n=128,m=2,p=0.75", "-seed", "9"},
		{"-model", "fitness", "-params", "n=128,m=2,eta0=0.3", "-threads", "4"},
		{"-snapshot", "g.csr"},
		{"-snapshot", "g.csr", "-verify", "-threads", "2"},
	}
	for _, args := range accept {
		o, err := parseOptions(args)
		if err == nil && o.snapshot == "" {
			_, err = o.resolve()
		}
		if err != nil {
			t.Errorf("args %v rejected: %v", args, err)
		}
	}
}

// TestRunOnGeneratedModel runs the CLI end to end on a small generated
// instance: the report must carry the model banner and the full
// statistics battery.
func TestRunOnGeneratedModel(t *testing.T) {
	var stdout, stderr strings.Builder
	args := []string{"-model", "mori", "-params", "n=256,m=2,p=0.5", "-seed", "3"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"model mori(", "256 vertices", "connected components:", "degree:", "max indegree:", "degree CCDF"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestRunOnSnapshot: measuring a snapshot must report the same
// statistics as measuring the generated graph directly — the mmap'd
// file stands in for the in-memory instance, statistic for statistic.
func TestRunOnSnapshot(t *testing.T) {
	m, err := model.New("mori", "n=256,m=2,p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Generate(rng.New(11), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := graph.WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}

	var direct, snapped strings.Builder
	if err := run([]string{"-model", "mori", "-params", "n=256,m=2,p=0.5", "-seed", "11"}, &direct, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-snapshot", path, "-seed", "11", "-verify"}, &snapped, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	// Drop the source banners (model vs snapshot line) and the sampled
	// distance line — its BFS sources come from the RNG stream, which
	// generation has already advanced in the direct run — and everything
	// left, the structural statistics, must match line for line.
	tail := func(s string) string {
		var keep []string
		for i, line := range strings.Split(s, "\n") {
			if i == 0 || strings.HasPrefix(line, "mean distance") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if tail(direct.String()) != tail(snapped.String()) {
		t.Errorf("snapshot statistics diverge from direct generation:\n--- direct ---\n%s\n--- snapshot ---\n%s",
			tail(direct.String()), tail(snapped.String()))
	}

	// A missing snapshot is a run error, not a panic.
	if err := run([]string{"-snapshot", filepath.Join(t.TempDir(), "absent.csr")}, &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Error("missing snapshot file accepted")
	}
}

// openedIn is the snapshot banner's wall-clock suffix, the only
// nondeterministic text genstats writes to stdout.
var openedIn = regexp.MustCompile(` \(opened in [^)]*\)`)

// TestGoldenStatistics pins every statistic genstats prints against
// testdata/<name>.golden, at -threads 1, 2 and NumCPU. The golden files
// are genstats' stdout with the snapshot's "(opened in …)" timing
// removed. The snapshot case is the repository benchmark's giant-graph
// input, a 2^20-vertex Móri graph read with -verify; -short skips it.
// The config model at seed 7 leaves thousands of components, so it
// reaches the giant-component branch instead of the distance passes.
func TestGoldenStatistics(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"mori-snapshot", []string{"-snapshot", "g.csr", "-verify", "-seed", "2024"}},
		{"config", []string{"-model", "config", "-params", "n=32768,k=2.3", "-seed", "7"}},
		{"cf", []string{"-model", "cf", "-params", "n=32768", "-seed", "7"}},
		{"fitness", []string{"-model", "fitness", "-params", "n=32768,m=2", "-seed", "7"}},
	}
	threads := slices.Compact([]int{1, 2, runtime.NumCPU()})
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.args[0] == "-snapshot" {
				if testing.Short() {
					t.Skip("the 2^20-vertex snapshot is skipped in -short mode")
				}
				writeGiantSnapshot(t)
			}
			for _, th := range threads {
				var stdout strings.Builder
				args := append([]string{"-threads", strconv.Itoa(th)}, tc.args...)
				if err := run(args, &stdout, &strings.Builder{}); err != nil {
					t.Fatal(err)
				}
				if got := openedIn.ReplaceAllString(stdout.String(), ""); got != string(want) {
					t.Errorf("-threads %d: output differs from testdata/%s.golden:\n--- got ---\n%s--- want ---\n%s",
						th, tc.golden, got, want)
				}
			}
		})
	}
}

// writeGiantSnapshot writes the benchmark's giant-graph input, what
// `graphgen -model mori -params n=1048576,m=2,p=0.5 -seed 2024 -snapshot
// g.csr` writes, into a fresh directory and makes it the working
// directory, so the banner names the file exactly as the benchmark does.
func writeGiantSnapshot(t *testing.T) {
	t.Helper()
	m, err := model.New("mori", "n=1048576,m=2,p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Generate(rng.New(2024), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := graph.WriteSnapshotFile(filepath.Join(dir, "g.csr"), g); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
}
