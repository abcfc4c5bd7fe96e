package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"scalefree/internal/obs/trace"
)

// TestMain lets the test binary serve as the launcher the harness
// re-executes for every CLI it runs (see launchArg).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == launchArg {
		if err := launch(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sfbench launch:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testScale shrinks every workload to about a second: the sweeps run
// at experiment scales 0.005-0.01 and the giant graph has 20,971
// vertices.
const testScale = "0.02"

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runHarness runs the harness in-process and decodes the last line of
// its standard output.
func runHarness(t *testing.T, args ...string) (result, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("sfbench %s: last stdout line is not a result (%v); run error: %v\nstderr:\n%s",
			strings.Join(args, " "), jerr, err, stderr.String())
	}
	return res, err
}

func TestBenchmarkNamesTheHarnessWorkloads(t *testing.T) {
	spec := loadTestSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames())
	}
}

// TestWorkloadsBothPaths runs every workload through the CLI path and
// the traced in-process path and checks that each emits exactly the
// metrics BENCHMARK.json names, with their units, fails nothing, and
// computes the same digests on both paths. A traced run is correct
// only if it measured every metric of the layers its workload enters
// (workload.checkLayers), so a dropped span category fails it here.
func TestWorkloadsBothPaths(t *testing.T) {
	spec := loadTestSpec(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			records := filepath.Join(t.TempDir(), "records.jsonl")
			for mode, want := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
				res, err := runHarness(t, "-workload", name, "-seed", "7", "-scale", testScale,
					"-seconds", "0", "-trace", mode, "-record", records)
				if err != nil {
					t.Fatalf("-trace %s: %v", mode, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("-trace %s: correct %v, %d of %d failed", mode, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("-trace %s: %d metrics, BENCHMARK.json names %d", mode, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("-trace %s: metric %s missing", mode, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("-trace %s: metric %s in %q, want %q", mode, m.Name, got.Unit, m.Unit)
					case mode == "0" && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			}
			set, err := readRecords(records)
			if err != nil {
				t.Fatal(err)
			}
			if len(set.records) != 2 {
				t.Fatalf("%d correct records, want 2", len(set.records))
			}
			a, b := set.records[0].Digests, set.records[1].Digests
			if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("digests differ between the CLI and traced paths: %v vs %v", a, b)
			}
		})
	}
}

// TestSearchShareSeparatesLayers checks, at the benchmark's own scale,
// that the two sweeps separate the search layer as designed: search is
// at least 80% of trial time on search-battery and at most 10% on
// mc-structure. At the tests' small scale the battery's share sits at
// the 0.8 line, so this runs each traced sweep once at full size.
func TestSearchShareSeparatesLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two sweeps at full size")
	}
	for name, want := range map[string][2]float64{
		"search-battery": {0.8, 1},
		"mc-structure":   {0, 0.1},
	} {
		t.Run(name, func(t *testing.T) {
			res, err := runHarness(t, "-workload", name, "-seed", "7", "-seconds", "0", "-trace", "1")
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Metrics["search.share"].Value; got < want[0] || got > want[1] {
				t.Errorf("search.share %v, want it in [%v, %v]", got, want[0], want[1])
			}
		})
	}
}

// TestCheckLayersFlagsUnmeasured checks that a traced run missing a
// metric of a layer its workload enters, or measuring it as 0, is
// incorrect, while fault counts may read 0.
func TestCheckLayersFlagsUnmeasured(t *testing.T) {
	spec := loadTestSpec(t)
	w := workload{name: "giant-graph", layers: giantLayers}
	res := newOutcome()
	for _, m := range spec.PerLayer {
		if w.enters(m.Name) {
			res.metrics[m.Name] = 1
		}
	}
	res.metrics["trace.dropped"] = 0
	w.checkLayers(res, spec.PerLayer)
	if len(res.problems) != 0 {
		t.Fatalf("a fully measured run was flagged: %v", res.problems)
	}
	delete(res.metrics, "graph.bfs_par_s")
	res.metrics["stats.degree_s"] = 0
	w.checkLayers(res, spec.PerLayer)
	if len(res.problems) != 2 {
		t.Fatalf("want 2 problems (graph.bfs_par_s missing, stats.degree_s 0), got %v", res.problems)
	}
}

// TestCorruptReferenceFails checks that a digest disagreeing with the
// reference makes the run incorrect and the harness exit nonzero.
func TestCorruptReferenceFails(t *testing.T) {
	ref := &reference{Digests: map[string]map[string]string{
		referenceKey("giant-graph", 7, 0.02): {"csr": strings.Repeat("0", 64)},
	}}
	path := filepath.Join(t.TempDir(), "reference.json")
	if err := writeReference(path, ref); err != nil {
		t.Fatal(err)
	}
	res, err := runHarness(t, "-workload", "giant-graph", "-seed", "7", "-scale", testScale,
		"-seconds", "0", "-reference", path)
	if err == nil || res.Correct {
		t.Fatalf("a corrupted reference digest passed: correct %v, error %v", res.Correct, err)
	}
	if !strings.Contains(err.Error(), "differs from the reference") {
		t.Fatalf("error does not name the digest mismatch: %v", err)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spreads are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	layer := metricSpec{Name: "search.search_s", Better: "lower"}
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		m      metricSpec
		change []float64
		want   string
	}{
		{"faster", wall, scaled(0.8), "improved"},
		{"noise", wall, scaled(1.01), "same"},
		{"slower beyond the bound", wall, scaled(1.2), "worse"},
		{"spread wider than the bound", wall, []float64{5, 15, 8, 12, 6, 14, 9, 11, 7, 13}, "unresolved"},
		{"per-layer slower", layer, scaled(1.2), "regressed"},
	} {
		if got := verdict(tc.m, base, tc.change).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestAnalyzeSelfTimes checks the self-time split and the integrity
// gates on hand-built span streams.
func TestAnalyzeSelfTimes(t *testing.T) {
	rec := func(ts int64, tid int32, ph byte, name, cat string) trace.Record {
		return trace.Record{TS: ts * 1e6, TID: tid, Ph: ph, Name: name, Cat: cat}
	}
	good := []trace.Record{
		rec(0, 0, 'B', "sweep", catRoot),
		rec(0, 0, 'B', "execute E1", catExecute),
		rec(0, 1, 'B', "E1/n=64/rep=0", "trial"),
		rec(1, 1, 'B', "generate", "phase"),
		rec(3, 1, 'E', "", ""),
		rec(3, 1, 'B', "search", "phase"),
		rec(9, 1, 'E', "", ""),
		rec(10, 1, 'E', "", ""),
		rec(0, 2, 'B', "E1/n=64/bound", "trial"),
		rec(6, 2, 'E', "", ""),
		rec(10, 0, 'E', "", ""),
		rec(10, 0, 'E', "", ""),
	}
	s, err := analyze(good)
	if err != nil {
		t.Fatal(err)
	}
	m := s.metrics()
	for name, want := range map[string]float64{
		"model.generate_s":         0.002,
		"search.search_s":          0.006,
		"experiment.trial_other_s": 0.002,
		"equivalence.mc_s":         0.006,
		"engine.busy_s":            0.016,
		"engine.trials":            2,
		"engine.tail_s":            0.004, // lane 2 ran dry at 6 ms of a 10 ms window
		"search.share":             0.006 / 0.016,
	} {
		if got := m[name]; fmt.Sprintf("%.9f", got) != fmt.Sprintf("%.9f", want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	if _, err := analyze(good[:len(good)-1]); err == nil {
		t.Error("a span that never ended was accepted")
	}
	overlap := []trace.Record{
		rec(0, 3, 'B', "a", "graph.components"),
		rec(5, 3, 'E', "", ""),
		rec(2, 3, 'B', "b", "graph.distance"),
		rec(8, 3, 'E', "", ""),
	}
	if _, err := analyze(overlap); err == nil {
		t.Error("overlapping spans on one lane were accepted")
	}
}
