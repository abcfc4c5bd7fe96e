// Command genstats measures the structural statistics of one graph —
// degree distribution with power-law fit, maximum degree, distances,
// and connectivity — for either a freshly generated instance of any
// registered model (internal/model) or a frozen binary CSR snapshot
// served zero-copy via mmap (graphgen -snapshot), which is how the
// n=10^8 giant-graph tables are produced without ever re-parsing a
// multi-gigabyte edge list.
//
// Usage:
//
//	genstats -model mori -params n=16384,p=0.5,m=1 [-seed 1]
//	genstats -model cf -params n=16384,alpha=0.8
//	genstats -model fitness -params n=16384,m=2,eta0=0.1
//	genstats -snapshot mori.csr -threads 16
//	genstats -snapshot mori.csr -verify
//
// -params is a comma-separated name=value list validated against the
// chosen model's parameter table (missing parameters take their
// defaults; run `graphgen -list` for the registry). Defaults are the
// registry's — e.g. bare genstats now measures the registry default
// n=4096, where the pre-registry CLI defaulted to 16384 — so pass
// -params n=… when comparing against older baselines. Adding a model
// to the registry makes it available here with no CLI changes.
//
// -snapshot bypasses generation and mmaps the given snapshot file;
// -seed then only drives the distance-sampling sources. -verify runs
// the full O(n+m) structural validation before measuring (for
// snapshots from untrusted sources). -threads sets how many goroutines
// the within-trial passes use: the bit-parallel multi-source BFS for
// the mean distance and the frontier-parallel BFS for the diameter
// bound, partitioned component labelling, and partitioned degree
// histogram/maximum accumulation (0 = all cores). Every statistic is
// byte-identical across thread counts.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"scalefree/internal/graph"
	"scalefree/internal/model"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "genstats:", err)
		os.Exit(1)
	}
}

// options is the parsed command line, separated from execution so the
// CLI test covers flag validation and model resolution without
// exec'ing the binary (the cmd/graphgen idiom).
type options struct {
	model    string
	params   string
	seed     uint64
	snapshot string
	verify   bool
	threads  int
}

func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("genstats", flag.ContinueOnError)
	fs.StringVar(&o.model, "model", "mori", "registered model name (see graphgen -list)")
	fs.StringVar(&o.params, "params", "", "comma-separated name=value model parameters (defaults otherwise)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed (drives generation and distance-sampling sources)")
	fs.StringVar(&o.snapshot, "snapshot", "", "measure this binary CSR snapshot (mmap, zero-copy) instead of generating")
	fs.BoolVar(&o.verify, "verify", false, "with -snapshot: run the full structural validation before measuring")
	fs.IntVar(&o.threads, "threads", 0, "goroutines for the parallel passes (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

func (o *options) validate() error {
	if o.verify && o.snapshot == "" {
		return fmt.Errorf("-verify only applies to -snapshot runs")
	}
	if o.snapshot != "" && o.params != "" {
		return fmt.Errorf("-snapshot measures an existing file; it takes no -params (the model ran at graphgen time)")
	}
	if o.threads < 0 {
		return fmt.Errorf("-threads %d is negative", o.threads)
	}
	return nil
}

// resolve instantiates the selected model, surfacing unknown names,
// unknown parameters, and out-of-range values as CLI errors.
func (o *options) resolve() (model.Model, error) {
	return model.New(o.model, o.params)
}

// run generates the requested graph and prints its statistics; the
// elapsed-time line on stderr is the only nondeterministic output.
//
//sf:wallclock — generation timing is reported to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	workers := o.threads
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	r := rng.New(o.seed)
	var g *graph.Graph
	if o.snapshot != "" {
		start := time.Now()
		snap, err := graph.OpenSnapshot(o.snapshot)
		if err != nil {
			return err
		}
		defer snap.Close()
		if o.verify {
			if err := snap.Validate(); err != nil {
				return err
			}
		}
		g = snap.Graph()
		fmt.Fprintf(stdout, "snapshot %s: %d vertices, %d edges, %d self-loops (opened in %v)\n",
			o.snapshot, g.NumVertices(), g.NumEdges(), g.NumSelfLoops(), time.Since(start).Round(time.Microsecond))
	} else {
		m, err := o.resolve()
		if err != nil {
			return err
		}
		g, err = m.Generate(r, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model %s(%s): %d vertices, %d edges, %d self-loops\n",
			m.Name(), m.Params(), g.NumVertices(), g.NumEdges(), g.NumSelfLoops())
	}
	return printStats(stdout, g, workers, r)
}

// printStats runs the measurement battery: every pass uses the
// partitioned/parallel accumulators, whose outputs are identical to
// the serial ones for any worker count.
func printStats(w io.Writer, g *graph.Graph, workers int, r *rng.RNG) error {
	n := g.NumVertices()
	if n == 0 {
		fmt.Fprintln(w, "empty graph")
		return nil
	}
	var par graph.BFSScratch

	labels := make([]int32, n+1)
	comps := graph.ComponentsParallelInto(g, labels, workers, &par)
	fmt.Fprintf(w, "connected components: %d\n", comps)

	degs := g.AppendDegrees(make([]int, 0, n))
	sum := stats.Summarize(stats.IntsToFloats(degs))
	fmt.Fprintf(w, "degree: mean %.2f  median %.0f  max %d\n", sum.Mean, sum.Median, g.MaxDegreeParallel(workers))
	maxIn := g.MaxInDegreeParallel(workers)
	fmt.Fprintf(w, "max indegree: %d (n^%.3f)\n", maxIn,
		math.Log(float64(maxIn))/math.Log(float64(n)))

	if fit, err := stats.FitPowerLawAuto(degs, 50); err == nil {
		fmt.Fprintf(w, "power-law tail fit: alpha %.3f ± %.3f (xmin %d, %d tail points, KS %.3f)\n",
			fit.Alpha, fit.StdErr, fit.Xmin, fit.NTail, fit.KS)
	} else {
		fmt.Fprintf(w, "power-law tail fit unavailable: %v\n", err)
	}

	dist := make([]int32, n+1)
	if comps == 1 {
		sources := make([]graph.Vertex, 8)
		for i := range sources {
			sources[i] = graph.Vertex(r.IntRange(1, n))
		}
		mean := graph.AverageDistanceSampledParallelInto(g, sources, dist, workers, &par)
		diam := graph.DoubleSweepLowerBoundParallelInto(g, sources[0], dist, workers, &par)
		fmt.Fprintf(w, "mean distance %.2f (%.2f·ln n), diameter >= %d\n",
			mean, mean/math.Log(float64(n)), diam)
	} else {
		sizes := graph.ComponentSizesFrom(g, labels, comps)
		giant := 0
		for _, s := range sizes {
			if s > giant {
				giant = s
			}
		}
		fmt.Fprintf(w, "giant component: %d vertices (%.1f%%)\n",
			giant, 100*float64(giant)/float64(n))
	}

	ccdf := stats.HistogramOfParallel(degs, workers).CCDF()
	fmt.Fprintln(w, "degree CCDF (value: fraction >= value):")
	step := len(ccdf)/10 + 1
	for i := 0; i < len(ccdf); i += step {
		fmt.Fprintf(w, "  %6d: %.5f\n", ccdf[i].X, ccdf[i].Frac)
	}
	return nil
}
