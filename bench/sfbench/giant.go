package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"scalefree/internal/graph"
	"scalefree/internal/model"
	"scalefree/internal/obs/trace"
	"scalefree/internal/rng"
	"scalefree/internal/stats"
)

// giantWorkload generates one Móri graph into a CSR snapshot with
// graphgen (the set-up) and measures genstats on it.
type giantWorkload struct {
	n int // vertices at benchmark scale 1
}

func (w giantWorkload) run(ctx context.Context, b *bench, traced bool) (*outcome, error) {
	n := max(1<<14, int(float64(w.n)*b.scale))
	params := fmt.Sprintf("n=%d,m=2,p=0.5", n)
	seed := strconv.FormatUint(b.seed, 10)
	threads := strconv.Itoa(giantThreads)
	out := newOutcome()

	var setup []float64
	for i := 0; i < setupReps; i++ {
		p, err := b.exec(ctx, "graphgen", "-model", "mori", "-params", params, "-seed", seed,
			"-snapshot", "g.csr", "-threads", threads)
		if err != nil {
			return out, err
		}
		setup = append(setup, p.wall.Seconds())
	}
	snap, err := graph.OpenSnapshot(filepath.Join(b.work, "g.csr"))
	if err != nil {
		return out, err
	}
	out.setDigest("csr", csrDigest(snap.Graph()))
	if err := snap.Close(); err != nil {
		return out, err
	}

	statArgs := []string{"-snapshot", "g.csr", "-verify", "-threads", threads, "-seed", seed}
	if traced {
		return w.runTraced(ctx, b, params, statArgs, out)
	}
	header := []byte(fmt.Sprintf("snapshot g.csr: %d vertices,", n))
	var want []byte
	var wall, cpu, rss []float64
	err = b.repeat(ctx, minReps, func(i int) error {
		out.attempted++
		p, err := b.exec(ctx, "genstats", statArgs...)
		if err != nil {
			out.failed++
			return err
		}
		got := stripTiming(p.stdout)
		switch {
		case !bytes.HasPrefix(got, header):
			out.problemf("repetition %d: genstats did not report the %d-vertex snapshot: %.80q", i+1, n, got)
		case want == nil:
			want = got
		case !bytes.Equal(got, want):
			out.problemf("repetition %d: genstats output differs from repetition 1", i+1)
		}
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		rss = append(rss, p.rssMiB)
		fmt.Fprintf(b.log, "  repetition %d: %.3fs wall, %.3fs cpu, %.1f MiB\n", i+1, p.wall.Seconds(), p.cpu.Seconds(), p.rssMiB)
		return nil
	})
	if err != nil {
		return out, err
	}
	out.metrics["wall_s"] = median(wall)
	out.metrics["setup_s"] = median(setup)
	out.metrics["cpu_s"] = median(cpu)
	out.metrics["peak_rss_mib"] = median(rss)
	return out, nil
}

// runTraced execs genstats once, then alternates untraced and traced
// in-process passes that regenerate the graph, write and reopen the
// snapshot, and run genstats' battery plus a serial and a parallel BFS.
func (w giantWorkload) runTraced(ctx context.Context, b *bench, params string, statArgs []string, out *outcome) (*outcome, error) {
	out.attempted++
	cli, err := b.exec(ctx, "genstats", statArgs...)
	if err != nil {
		out.failed++
		return out, err
	}
	// The header line names the snapshot file; the battery follows it.
	_, cliStats, _ := bytes.Cut(stripTiming(cli.stdout), []byte("\n"))

	layers, err := b.alternate(ctx, cli.wall, func(i int, rec *trace.Recorder) (time.Duration, map[string]float64, error) {
		out.attempted++
		p, err := giantPass(b, params, rec)
		if err != nil {
			out.failed++
			return 0, nil, err
		}
		if !bytes.Equal(p.stats, cliStats) {
			out.problemf("pass %d: in-process statistics differ from genstats':\n%s\nvs\n%s", i+1, p.stats, cliStats)
		}
		out.setDigest("csr", p.csr)
		if rec == nil {
			return p.statsWall, nil, nil
		}
		sp, err := finishTrace(rec, b.traceFile)
		if err != nil {
			return 0, nil, err
		}
		m := sp.metrics()
		m["graph.snapshot_open_ms"] = 1e3 * sp.self["graph.snapshot_open"]
		m["model.medges_per_s"] = p.edges / sp.self["model.generate"] / 1e6
		m["graph.bfs_speedup"] = sp.self["graph.bfs_serial"] / sp.self["graph.bfs_par"]
		m["graph.bfs_mteps"] = p.edges / sp.self["graph.bfs_par"] / 1e6
		return p.statsWall, m, nil
	})
	if err != nil {
		return out, err
	}
	if err := b.checkTraceFile(ctx); err != nil {
		return out, err
	}
	out.metrics = layers
	return out, nil
}

type giantPassResult struct {
	statsWall time.Duration // open, validate and battery: what genstats does
	stats     []byte        // the battery's output, as genstats prints it
	csr       string
	edges     float64
}

// giantPass makes every model, graph and stats call graphgen and
// genstats make, in their order, with a span around each.
func giantPass(b *bench, params string, rec *trace.Recorder) (*giantPassResult, error) {
	ctl := lane{rec: rec}
	path := filepath.Join(b.work, "inproc.csr")
	ctl.begin("giant graph", catRoot)
	defer ctl.end()

	ctl.begin("generate", "model.generate")
	m, err := model.New("mori", params)
	var g *graph.Graph
	if err == nil {
		g, err = m.Generate(rng.New(b.seed), nil)
	}
	ctl.end()
	if err != nil {
		return nil, err
	}
	r := &giantPassResult{edges: float64(g.NumEdges())}
	ctl.begin("write snapshot", "graph.snapshot_write")
	err = graph.WriteSnapshotFile(path, g)
	ctl.end()
	if err != nil {
		return nil, err
	}

	start := time.Now()
	ctl.begin("open snapshot", "graph.snapshot_open")
	snap, err := graph.OpenSnapshot(path)
	ctl.end()
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	ctl.begin("validate", "graph.validate")
	err = snap.Validate()
	ctl.end()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	statsBattery(ctl, &buf, snap.Graph(), giantThreads, rng.New(b.seed))
	r.statsWall = time.Since(start)
	r.stats = buf.Bytes()

	if err := bfsPair(ctl, snap.Graph()); err != nil {
		return nil, err
	}
	r.csr = csrDigest(snap.Graph())
	return r, nil
}

// statsBattery is cmd/genstats' measurement battery, call for call and
// line for line, with a span around each layer call.
func statsBattery(ctl lane, w io.Writer, g *graph.Graph, workers int, r *rng.RNG) {
	n := g.NumVertices()
	var par graph.BFSScratch

	labels := make([]int32, n+1)
	ctl.begin("components", "graph.components")
	comps := graph.ComponentsParallelInto(g, labels, workers, &par)
	ctl.end()
	fmt.Fprintf(w, "connected components: %d\n", comps)

	ctl.begin("degrees", "stats.degree")
	degs := g.AppendDegrees(make([]int, 0, n))
	sum := stats.Summarize(stats.IntsToFloats(degs))
	maxDeg := g.MaxDegreeParallel(workers)
	maxIn := g.MaxInDegreeParallel(workers)
	ctl.end()
	fmt.Fprintf(w, "degree: mean %.2f  median %.0f  max %d\n", sum.Mean, sum.Median, maxDeg)
	fmt.Fprintf(w, "max indegree: %d (n^%.3f)\n", maxIn,
		math.Log(float64(maxIn))/math.Log(float64(n)))

	ctl.begin("power-law fit", "stats.powerlaw_fit")
	fit, err := stats.FitPowerLawAuto(degs, 50)
	ctl.end()
	if err == nil {
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
		ctl.begin("distances", "graph.distance")
		mean := graph.AverageDistanceSampledParallelInto(g, sources, dist, workers, &par)
		diam := graph.DoubleSweepLowerBoundParallelInto(g, sources[0], dist, workers, &par)
		ctl.end()
		fmt.Fprintf(w, "mean distance %.2f (%.2f·ln n), diameter >= %d\n",
			mean, mean/math.Log(float64(n)), diam)
	} else {
		ctl.begin("component sizes", "graph.components")
		sizes := graph.ComponentSizesFrom(g, labels, comps)
		ctl.end()
		giant := slices.Max(sizes)
		fmt.Fprintf(w, "giant component: %d vertices (%.1f%%)\n",
			giant, 100*float64(giant)/float64(n))
	}

	ctl.begin("histogram", "stats.histogram")
	ccdf := stats.HistogramOfParallel(degs, workers).CCDF()
	ctl.end()
	fmt.Fprintln(w, "degree CCDF (value: fraction >= value):")
	step := len(ccdf)/10 + 1
	for i := 0; i < len(ccdf); i += step {
		fmt.Fprintf(w, "  %6d: %.5f\n", ccdf[i].X, ccdf[i].Frac)
	}
}

// bfsPair runs serial BFS, the single-thread baseline, and the
// frontier-parallel BFS from vertex 1, and requires equal distances.
func bfsPair(ctl lane, g *graph.Graph) error {
	n := g.NumVertices()
	serial := make([]int32, n+1)
	queue := make([]graph.Vertex, 0, n)
	ctl.begin("bfs serial", "graph.bfs_serial")
	graph.BFSInto(g, 1, serial, queue)
	ctl.end()
	par := make([]int32, n+1)
	var s graph.BFSScratch
	ctl.begin("bfs parallel", "graph.bfs_par")
	graph.BFSParallelInto(g, 1, par, giantThreads, &s)
	ctl.end()
	if !slices.Equal(serial, par) {
		return errors.New("parallel BFS distances differ from serial BFS")
	}
	return nil
}
