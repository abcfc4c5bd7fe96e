// Command sfbench is the repository benchmark. It runs four workloads,
// each sized so that a different layer of the reproduction dominates,
// and prints every metric by name with its unit:
//
//   - search-battery: the search experiments E1, E2, E11;
//   - mc-structure: the Monte-Carlo and structure experiments E3-E10;
//   - giant-graph: graphgen into a CSR snapshot, then genstats on it;
//   - fleet-replay: a coordinator and a worker over E2, E5, E11, E13,
//     replayed from a warm result cache.
//
// With -trace 0 the end-to-end metrics come from exec'ing the real
// CLIs (cmd/experiments, cmd/graphgen, cmd/genstats), built once per
// invocation; exact CPU time and peak RSS come from each child's
// rusage. With -trace 1 the same workloads run in-process through the
// public package functions with spans around every call, and the run
// reports the per-layer split instead. Both modes check their outputs:
// digests against bench/reference.json at the recorded seed, and
// cross-path agreement at every seed. The harness exits nonzero when
// any output is wrong.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload all -seed 2024
//	bash bench/run.sh -workload search-battery -seed 7 -trace 1
//	bash bench/run.sh -workload fleet-replay -record change.jsonl
//	bash bench/run.sh compare base.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
//
//sf:wallclock — a benchmark harness: every clock read is a measurement.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"scalefree/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == launchArg {
		if err := launch(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sfbench launch:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sfbench:", err)
		os.Exit(1)
	}
}

// The load shape is fixed on every machine: at most two busy trial
// threads and one loopback connection. The env stamp labels a run
// oversubscribed when a count exceeds NumCPU.
const (
	sweepWorkers = 2 // experiments -workers for the local sweeps
	fleetThreads = 2 // -workers of the fleet's one worker process
	giantThreads = 2 // graphgen/genstats -threads
)

// minReps is the fewest timed repetitions a run makes, however short
// its window: every reported end-to-end timing is a median of at least
// this many.
const minReps = 3

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	scale     float64
	record    string
	reference string
	updateRef bool
}

func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("sfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 2024, "seed every workload input derives from")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement window per workload in seconds (at least three timed repetitions run regardless)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from the CLIs; 1: per-layer split from a traced in-process run")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies every workload's size")
	fs.StringVar(&o.record, "record", "", "append one JSONL record per workload to this file (the input of sfbench compare)")
	fs.StringVar(&o.reference, "reference", filepath.Join("bench", "reference.json"), "reference digests, relative to the repository root")
	fs.BoolVar(&o.updateRef, "update-reference", false, "write this run's digests into -reference instead of checking them")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case fs.NArg() != 0:
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1")
	case o.seconds < 0:
		return nil, fmt.Errorf("-seconds must be >= 0")
	case !(o.scale > 0):
		return nil, fmt.Errorf("-scale must be positive")
	}
	if _, err := selectWorkloads(o.workload); err != nil {
		return nil, err
	}
	return o, nil
}

// workload is one named set of inputs. run measures it end to end
// through the CLIs or, with traced set, in-process with spans.
type workload struct {
	name string
	run  func(ctx context.Context, b *bench, traced bool) (*outcome, error)
	// layers names, by prefix, the per-layer metrics a traced run must
	// measure: the layers the workload is built to exercise. Every other
	// per-layer metric reads 0 for it.
	layers []string
}

// Per-layer prefixes every traced workload measures, and the ones each
// kind of workload adds.
var (
	commonLayers = []string{"trace.", "bench."}
	sweepLayers  = []string{"search.", "model.generate_s", "engine.", "experiment.",
		"sweep.encode_us", "sweep.decode_us", "sweep.result_bytes"}
	giantLayers = []string{"model.", "graph.", "stats."}
	fleetLayers = []string{"sweep.", "experiment.", "engine.", "search.", "model.generate_s"}
)

func workloads() []workload {
	return []workload{
		{"search-battery", sweepWorkload{exps: []string{"E1", "E2", "E11"}, scale: 0.35}.run, sweepLayers},
		{"mc-structure", sweepWorkload{exps: []string{"E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"}, scale: 0.25}.run,
			append([]string{"equivalence."}, sweepLayers...)},
		{"giant-graph", giantWorkload{n: 1 << 20}.run, giantLayers},
		{"fleet-replay", fleetWorkload{exps: []string{"E2", "E5", "E11", "E13"}, scale: 0.5}.run, fleetLayers},
	}
}

// mayBeZero lists the per-layer metrics a healthy traced run may
// measure as 0 or less: counts of faults, and the tracing overhead,
// which is noise around 0 where tracing costs little.
var mayBeZero = map[string]bool{
	"trace.dropped":       true,
	"trace.overhead_frac": true,
	"sweep.leases_stolen": true,
	"sweep.chunk_retries": true,
}

// checkLayers flags every per-layer metric of the workload's layers
// that its traced run did not measure, or measured as 0.
func (w workload) checkLayers(res *outcome, perLayer []metricSpec) {
	for _, m := range perLayer {
		if !w.enters(m.Name) {
			continue
		}
		switch v, ok := res.metrics[m.Name]; {
		case !ok:
			res.problemf("the traced run did not measure %s", m.Name)
		case !(v > 0) && !mayBeZero[m.Name]:
			res.problemf("the traced run measured %s = %v", m.Name, v)
		}
	}
}

func (w workload) enters(metric string) bool {
	for _, p := range slices.Concat(commonLayers, w.layers) {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads(), nil
	}
	for _, w := range workloads() {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(workloadNames(), ", "))
}

// bench is what one workload run works with.
type bench struct {
	bin       string // directory of the built CLIs
	work      string // this workload's scratch directory, removed afterwards
	traceFile string // where a traced run leaves its trace.json
	seed      uint64
	scale     float64
	window    time.Duration
	log       io.Writer
}

// outcome is what one workload run measured and checked.
type outcome struct {
	metrics   map[string]float64
	attempted int // operations attempted: trials, or genstats runs
	failed    int
	digests   map[string]string
	problems  []string // wrong outputs; any makes the run incorrect
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, digests: map[string]string{}}
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// setDigest records a digest, flagging a pass that disagrees with an
// earlier pass of the same run.
func (o *outcome) setDigest(name, hex string) {
	if prev, ok := o.digests[name]; ok && prev != hex {
		o.problemf("%s digest changed between passes of one run: %s then %s", name, prev, hex)
		return
	}
	o.digests[name] = hex
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one JSONL line of -record: a workload run with the
// environment it ran in.
type record struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Env       envStamp               `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Digests   map[string]string      `json:"digests"`
	Problems  []string               `json:"problems,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout)
	}
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	selected, err := selectWorkloads(o.workload)
	if err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	refPath := o.reference
	if !filepath.IsAbs(refPath) {
		refPath = filepath.Join(root, refPath)
	}
	ref, err := loadReference(refPath)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out := filepath.Join(root, ".bench_build", "sfbench")
	bin := filepath.Join(out, "bin")
	if err := buildCLIs(ctx, root, bin); err != nil {
		return err
	}
	want := spec.EndToEnd
	if o.trace == 1 {
		want = spec.PerLayer
	}
	env := newEnvStamp(o)

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	var problems []string
	for _, w := range selected {
		b := &bench{
			bin:       bin,
			work:      filepath.Join(out, w.name),
			traceFile: filepath.Join(out, "trace", w.name+".json"),
			seed:      o.seed,
			scale:     o.scale,
			window:    time.Duration(o.seconds) * time.Second,
			log:       stderr,
		}
		if err := os.RemoveAll(b.work); err != nil {
			return err
		}
		if err := os.MkdirAll(b.work, 0o755); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "sfbench: %s (seed %d, scale %g, window %ds, trace %d)\n", w.name, o.seed, o.scale, o.seconds, o.trace)
		res, err := w.run(ctx, b, o.trace == 1)
		if rerr := os.RemoveAll(b.work); rerr != nil && err == nil {
			err = rerr
		}
		if err != nil {
			// The run broke off: report it as incorrect, with what it
			// attempted, and fail.
			final.Correct = false
			if res != nil {
				final.Attempted += res.attempted
				final.Failed += res.failed
			}
			final.Attempted = max(final.Attempted, 1)
			final.Failed = max(final.Failed, 1)
			if jerr := json.NewEncoder(stdout).Encode(final); jerr != nil {
				return jerr
			}
			return fmt.Errorf("%s: %w", w.name, err)
		}

		key := referenceKey(w.name, o.seed, o.scale)
		if !o.updateRef {
			checkReference(res, ref.Digests[key])
		}
		if o.trace == 1 {
			w.checkLayers(res, spec.PerLayer)
		}
		correct := len(res.problems) == 0 && res.failed == 0
		if o.updateRef && correct {
			ref.Digests[key] = res.digests
		}
		metrics, err := collect(res.metrics, want, o.trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for _, m := range want {
			fmt.Fprintf(stdout, "%-15s %-26s %14.6g %s\n", w.name, m.Name, metrics[m.Name].Value, m.Unit)
		}
		for _, p := range res.problems {
			fmt.Fprintf(stdout, "%-15s WRONG: %s\n", w.name, p)
			problems = append(problems, w.name+": "+p)
		}
		if o.record != "" {
			rec := record{Workload: w.name, Trace: o.trace, Env: env, Correct: correct,
				Attempted: res.attempted, Failed: res.failed, Metrics: metrics, Digests: res.digests, Problems: res.problems}
			if err := appendRecord(o.record, rec); err != nil {
				return err
			}
		}

		final.Correct = final.Correct && correct
		final.Attempted += res.attempted
		final.Failed += res.failed
		for name, v := range metrics {
			if len(selected) > 1 {
				name = w.name + "." + name
			}
			final.Metrics[name] = v
		}
	}
	if o.updateRef {
		if err := writeReference(refPath, ref); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "sfbench: recorded digests in %s\n", refPath)
	}
	if err := json.NewEncoder(stdout).Encode(final); err != nil {
		return err
	}
	if !final.Correct {
		if len(problems) == 0 {
			problems = append(problems, fmt.Sprintf("%d of %d operations failed", final.Failed, final.Attempted))
		}
		return fmt.Errorf("wrong outputs:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// collect attaches units to a run's metrics, in the set the spec
// lists. A per-layer metric of a layer the workload never entered reads
// 0; a missing end-to-end metric is a harness bug.
func collect(got map[string]float64, want []metricSpec, perLayer bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module scalefree.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module scalefree" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing directory has the scalefree go.mod; run from the repository")
		}
		dir = parent
	}
}

// buildCLIs builds the binaries the workloads exec. Build time is not
// measured, and an up-to-date build is a no-op.
func buildCLIs(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/experiments", "./cmd/graphgen", "./cmd/genstats", "./cmd/sweeptrace")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the CLIs: %w\n%s", err, out)
	}
	return nil
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: metric
// names, units, directions and bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// reference holds the digests of correct outputs, keyed by
// referenceKey. A change that deliberately alters the random streams
// re-records them with -update-reference.
type reference struct {
	Comment string                       `json:"comment"`
	Digests map[string]map[string]string `json:"digests"`
}

func referenceKey(workload string, seed uint64, scale float64) string {
	return fmt.Sprintf("%s seed=%d scale=%g", workload, seed, scale)
}

func loadReference(path string) (*reference, error) {
	ref := &reference{Digests: map[string]map[string]string{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ref, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, ref); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if ref.Digests == nil {
		ref.Digests = map[string]map[string]string{}
	}
	return ref, nil
}

func writeReference(path string, ref *reference) error {
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkReference compares a run's digests with the recorded ones.
func checkReference(res *outcome, want map[string]string) {
	for name, hex := range want {
		switch got, ok := res.digests[name]; {
		case !ok:
			res.problemf("no %s digest to compare with the reference", name)
		case got != hex:
			res.problemf("%s digest %s differs from the reference %s", name, got, hex)
		}
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// envStamp is the environment every record carries, so two records
// can be told apart by machine, toolchain and commit.
type envStamp struct {
	Commit         string         `json:"commit"`
	Modified       string         `json:"modified"`
	GoVersion      string         `json:"go_version"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	NumCPU         int            `json:"num_cpu"`
	CPUModel       string         `json:"cpu_model"`
	Seed           uint64         `json:"seed"`
	Scale          float64        `json:"scale"`
	Seconds        int            `json:"seconds"`
	Workers        map[string]int `json:"workers"`
	Oversubscribed bool           `json:"oversubscribed"`
}

func newEnvStamp(o *options) envStamp {
	build := obs.ReadBuild()
	workers := map[string]int{
		"sweep_workers":        sweepWorkers,
		"fleet_worker_threads": fleetThreads,
		"giant_threads":        giantThreads,
	}
	over := false
	for _, n := range workers {
		over = over || n > runtime.NumCPU()
	}
	return envStamp{
		Commit:         build.Revision,
		Modified:       build.Modified,
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		CPUModel:       cpuModel(),
		Seed:           o.seed,
		Scale:          o.scale,
		Seconds:        o.seconds,
		Workers:        workers,
		Oversubscribed: over,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, or reports the
// architecture where that file does not exist.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
