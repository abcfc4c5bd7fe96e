package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"scalefree/internal/core"
	"scalefree/internal/engine"
	"scalefree/internal/experiment"
	"scalefree/internal/obs/trace"
	"scalefree/internal/sweep"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// recordsPerTrial is what the engine and core record for one search
// trial: begin and end of the trial span and its generate, freeze and
// search phases. It sizes trace writers so that a pass drops nothing.
const recordsPerTrial = 8

// sweepWorkload is a local cmd/experiments sweep over a fixed set of
// experiments on sweepWorkers trial workers.
type sweepWorkload struct {
	exps  []string
	scale float64 // experiment -scale at benchmark scale 1
}

func (w sweepWorkload) run(ctx context.Context, b *bench, traced bool) (*outcome, error) {
	exps, err := lookupExperiments(w.exps)
	if err != nil {
		return nil, err
	}
	cfg := experiment.Config{Seed: b.seed, Scale: w.scale * b.scale}
	args := slices.Concat(sweepArgs(w.exps, cfg), []string{"-workers", strconv.Itoa(sweepWorkers)})
	out := newOutcome()

	// A sweep's set-up is planning every experiment, the work done
	// before the first trial runs, so work moved into Plan shows here.
	// The sweep has no other set-up; the benchmark's format asks every
	// workload for a setup_s, the median of several set-ups.
	var setup []float64
	trials, largest := 0, 0
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		trials, largest, err = planAll(exps, cfg)
		if err != nil {
			return out, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	if traced {
		return w.runTraced(ctx, b, exps, cfg, args, trials, largest, out)
	}

	// The first, untimed repetition runs in shard mode: it warms the
	// page cache, and its result files are the positional results the
	// digest covers and the timed repetitions' tables are checked
	// against.
	dir := filepath.Join(b.work, "shards")
	out.attempted += trials
	if _, err := b.exec(ctx, "experiments", slices.Concat(args, []string{"-shard", "1/1", "-out", dir})...); err != nil {
		out.failed += trials
		return out, err
	}
	results, want, err := readShards(exps, cfg, dir)
	if err != nil {
		return out, err
	}
	out.setDigest("results", resultsDigest(w.exps, results))

	var wall, cpu, rss []float64
	err = b.repeat(ctx, minReps, func(i int) error {
		out.attempted += trials
		p, err := b.exec(ctx, "experiments", args...)
		if err != nil {
			out.failed += trials
			return err
		}
		if !bytes.Equal(p.stdout, want) {
			out.problemf("repetition %d: the CLI's tables differ from the tables reduced from its own shard results", i+1)
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

// runTraced execs the CLI once, then alternates untraced and traced
// in-process passes until the window has passed. The per-layer split
// is the median over traced passes; the untraced passes give the
// tracing overhead and the in-process/CLI skew.
func (w sweepWorkload) runTraced(ctx context.Context, b *bench, exps []experiment.Experiment, cfg experiment.Config, args []string, trials, largest int, out *outcome) (*outcome, error) {
	out.attempted += trials
	cli, err := b.exec(ctx, "experiments", args...)
	if err != nil {
		out.failed += trials
		return out, err
	}
	layers, err := b.alternate(ctx, cli.wall, func(i int, rec *trace.Recorder) (time.Duration, map[string]float64, error) {
		if rec != nil {
			// One writer may record a whole experiment's trials.
			rec.WriterCap = recordsPerTrial*largest + 64
		}
		out.attempted += trials
		p, err := sweepPass(ctx, exps, cfg, rec)
		if err != nil {
			out.failed += trials
			return 0, nil, err
		}
		if !bytes.Equal(p.tables, cli.stdout) {
			out.problemf("pass %d: in-process tables differ from the CLI's", i+1)
		}
		out.setDigest("results", resultsDigest(w.exps, p.results))
		if rec == nil {
			return p.wall, nil, nil
		}
		sp, err := finishTrace(rec, b.traceFile)
		if err != nil {
			return 0, nil, err
		}
		m := sp.metrics()
		m["sweep.encode_us"] = 1e6 * sp.self["sweep.encode"] / float64(trials)
		m["sweep.decode_us"] = 1e6 * sp.self["sweep.decode"] / float64(trials)
		m["sweep.result_bytes"] = float64(p.resultBytes)
		return p.wall, m, nil
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

type sweepPassResult struct {
	wall        time.Duration // plan, execute, reduce and render: what the CLI does
	tables      []byte
	results     [][]any
	resultBytes int
}

// sweepPass runs the experiments in-process through the calls the CLI
// makes, with a span around each: Plan and Fingerprint, sweep.Execute
// (whose trial and phase spans the engine records), Reduce and Render.
// It then round-trips every result through the codec.
func sweepPass(ctx context.Context, exps []experiment.Experiment, cfg experiment.Config, rec *trace.Recorder) (*sweepPassResult, error) {
	ctl := lane{rec: rec}
	r := &sweepPassResult{}
	var tables bytes.Buffer
	ctl.begin("sweep", catRoot)
	defer ctl.end()
	for _, e := range exps {
		start := time.Now()
		ctl.begin("plan "+e.ID, "experiment.plan")
		plan, err := e.Plan(cfg)
		if err != nil {
			return nil, err
		}
		fp, err := e.Fingerprint(cfg)
		ctl.end()
		if err != nil {
			return nil, err
		}
		ctl.begin("execute "+e.ID, catExecute)
		byIdx, _, err := sweep.Execute(ctx, sweep.Job{ExpID: e.ID, Fingerprint: fp}, plan.Trials,
			engine.Options{Workers: sweepWorkers, Trace: rec}, nil, core.NewScratch, plan.Run)
		ctl.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		res, err := positional(byIdx, len(plan.Trials))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		ctl.begin("reduce "+e.ID, "experiment.reduce")
		t, err := plan.Reduce(res)
		ctl.end()
		if err != nil {
			return nil, fmt.Errorf("%s: reducing: %w", e.ID, err)
		}
		ctl.begin("render "+e.ID, "experiment.render")
		err = renderTables(&tables, t)
		ctl.end()
		if err != nil {
			return nil, err
		}
		r.wall += time.Since(start)
		n, err := codecRoundTrip(ctl, res)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		r.resultBytes += n
		r.results = append(r.results, res)
	}
	r.tables = tables.Bytes()
	return r, nil
}

// codecRoundTrip encodes and then decodes every result, as the cache
// and the wire do, requires the round trip to be exact, and returns
// the encoded size.
func codecRoundTrip(ctl lane, res []any) (int, error) {
	enc := make([][]byte, len(res))
	var err error
	ctl.begin("encode", "sweep.encode")
	for i, v := range res {
		if enc[i], err = sweep.EncodeResult(v); err != nil {
			break
		}
	}
	ctl.end()
	if err != nil {
		return 0, err
	}
	dec := make([]any, len(res))
	ctl.begin("decode", "sweep.decode")
	for i, data := range enc {
		if dec[i], err = sweep.DecodeResult(data); err != nil {
			break
		}
	}
	ctl.end()
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range res {
		n += len(enc[i])
		if fmt.Sprint(dec[i]) != fmt.Sprint(res[i]) {
			return 0, fmt.Errorf("trial %d: codec round trip changed %v into %v", i, res[i], dec[i])
		}
	}
	return n, nil
}

// readShards loads the 1-of-1 shard file of each experiment: the
// positional results, and the tables -merge would print from them.
func readShards(exps []experiment.Experiment, cfg experiment.Config, dir string) ([][]any, []byte, error) {
	var tables bytes.Buffer
	results := make([][]any, len(exps))
	for i, e := range exps {
		path := filepath.Join(dir, e.ShardFileName(sweep.ShardSpec{Count: 1}))
		t, err := e.MergeShardFiles(cfg, []string{path})
		if err != nil {
			return nil, nil, err
		}
		if err := renderTables(&tables, t); err != nil {
			return nil, nil, err
		}
		header, byIdx, err := sweep.ReadShardFile(path)
		if err != nil {
			return nil, nil, err
		}
		if results[i], err = positional(byIdx, header.TotalTrials); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return results, tables.Bytes(), nil
}

func positional(byIdx map[int]any, n int) ([]any, error) {
	res := make([]any, n)
	for i := range res {
		v, ok := byIdx[i]
		if !ok {
			return nil, fmt.Errorf("no result for trial %d of %d", i, n)
		}
		res[i] = v
	}
	return res, nil
}

func lookupExperiments(ids []string) ([]experiment.Experiment, error) {
	exps := make([]experiment.Experiment, len(ids))
	for i, id := range ids {
		e, ok := experiment.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %s", id)
		}
		exps[i] = e
	}
	return exps, nil
}

// sweepArgs is the cmd/experiments command line every process of a
// workload shares.
func sweepArgs(ids []string, cfg experiment.Config) []string {
	return []string{"-run", strings.Join(ids, ","), "-scale", strconv.FormatFloat(cfg.Scale, 'g', -1, 64),
		"-seed", strconv.FormatUint(cfg.Seed, 10)}
}

// planAll plans and fingerprints every experiment and returns the
// total trial count and the largest plan's.
func planAll(exps []experiment.Experiment, cfg experiment.Config) (total, largest int, err error) {
	for _, e := range exps {
		plan, err := e.Plan(cfg)
		if err != nil {
			return 0, 0, err
		}
		if _, err := e.Fingerprint(cfg); err != nil {
			return 0, 0, err
		}
		total += len(plan.Trials)
		largest = max(largest, len(plan.Trials))
	}
	return total, largest, nil
}
