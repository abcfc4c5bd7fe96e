// Distribution entry points: running an experiment as one shard of a
// multi-process sweep, persisting per-trial results, and merging shard
// files back into tables. The guarantee inherited from the engine and
// extended here: for a fixed Config, any (shard count, worker count,
// cache state, interruption history) produces byte-identical rendered
// tables, because every strategy assembles the same positional result
// slice before the single Reduce.
package experiment

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"scalefree/internal/core"
	"scalefree/internal/engine"
	"scalefree/internal/obs/trace"
	"scalefree/internal/sweep"
)

// reduceSpan brackets a plan's Reduce with a span on the control lane
// (TID 0). Reduce runs once per experiment on one goroutine, so the
// cold-path Emit pair is cheap and always well-nested.
func reduceSpan(rec *trace.Recorder, expID string, reduce func() error) error {
	if !rec.Enabled() {
		return reduce()
	}
	rec.Emit(trace.Record{Ph: 'B', Name: "reduce " + expID, Cat: "reduce"})
	err := reduce()
	rec.Emit(trace.Record{Ph: 'E'})
	return err
}

// planJob plans the experiment and derives the sweep job identity
// (experiment ID + plan fingerprint) that addresses its artifacts.
func (e Experiment) planJob(cfg Config) (*Plan, sweep.Job, error) {
	plan, err := e.Plan(cfg)
	if err != nil {
		return nil, sweep.Job{}, fmt.Errorf("%s: planning: %w", e.ID, err)
	}
	return plan, sweep.Job{ExpID: e.ID, Fingerprint: sweep.Fingerprint(e.ID, cfg.canonical(), plan.Trials)}, nil
}

// Fingerprint returns the plan fingerprint at cfg — the identity under
// which shard files and cached trial results are addressed.
func (e Experiment) Fingerprint(cfg Config) (string, error) {
	_, job, err := e.planJob(cfg)
	if err != nil {
		return "", err
	}
	return job.Fingerprint, nil
}

// RunCached plans the experiment, executes its trials on the engine
// with the given options (one reusable core.Scratch per worker), and
// reduces the results into tables. The optional content-addressed
// result cache splices cached trials in without executing them and
// persists fresh trials as soon as they finish; the returned stats say
// how much work it saved. A nil cache is a plain run, and Workers: 1
// is the serial reference every other path reproduces byte for byte.
func (e Experiment) RunCached(ctx context.Context, cfg Config, opts engine.Options, cache *sweep.Cache) ([]Table, sweep.Stats, error) {
	plan, job, err := e.planJob(cfg)
	if err != nil {
		return nil, sweep.Stats{}, err
	}
	byIdx, stats, err := sweep.Execute(ctx, job, plan.Trials, opts, cache, core.NewScratch, plan.Run)
	if err != nil {
		return nil, stats, fmt.Errorf("%s: %w", e.ID, err)
	}
	results := make([]any, len(plan.Trials))
	for i := range results {
		results[i] = byIdx[i]
	}
	var tables []Table
	if err := reduceSpan(opts.Trace, e.ID, func() (rerr error) {
		tables, rerr = plan.Reduce(results)
		return rerr
	}); err != nil {
		return nil, stats, fmt.Errorf("%s: reducing: %w", e.ID, err)
	}
	return tables, stats, nil
}

// ShardFileName is the canonical file name for one shard of this
// experiment, e.g. "E4.shard-2of5" — what RunShard writes and what
// merge runs glob for.
func (e Experiment) ShardFileName(spec sweep.ShardSpec) string {
	return fmt.Sprintf("%s.shard-%dof%d", e.ID, spec.Index+1, spec.Count)
}

// RunShard executes one shard of the plan at cfg and writes the
// shard's positional results to outPath. With resume set, entries of
// an existing shard file at outPath (validated against the plan
// fingerprint and shard spec) are reused instead of re-executed and
// counted as cache hits; the optional per-trial cache fills remaining
// gaps. The written file always holds the shard's complete result set.
func (e Experiment) RunShard(ctx context.Context, cfg Config, spec sweep.ShardSpec, opts engine.Options, cache *sweep.Cache, outPath string, resume bool) (sweep.Stats, error) {
	plan, job, err := e.planJob(cfg)
	if err != nil {
		return sweep.Stats{}, err
	}
	own := spec.Filter(plan.Trials)
	header := sweep.ShardHeader{
		ExpID:       e.ID,
		Fingerprint: job.Fingerprint,
		ShardIndex:  spec.Index,
		ShardCount:  spec.Count,
		TotalTrials: len(plan.Trials),
	}

	have := map[int]any{}
	var stats sweep.Stats
	reused := false
	if resume {
		if _, err := os.Stat(outPath); err == nil {
			prev, entries, err := sweep.ReadShardFile(outPath)
			if err != nil {
				return stats, fmt.Errorf("%s: resuming from %s: %w (remove the file or rerun without -resume)", e.ID, outPath, err)
			}
			if prev != header {
				return stats, fmt.Errorf("%s: shard file %s was written for a different run (%s shard %d/%d, %d trials, fp %.12s; want shard %d/%d, %d trials, fp %.12s) — remove it or rerun without -resume",
					e.ID, outPath, prev.ExpID, prev.ShardIndex+1, prev.ShardCount, prev.TotalTrials, prev.Fingerprint,
					header.ShardIndex+1, header.ShardCount, header.TotalTrials, header.Fingerprint)
			}
			have = entries
			stats.CacheHits += len(entries)
			reused = true
		}
	}

	missing := make([]engine.Trial, 0, len(own))
	for _, t := range own {
		if _, ok := have[t.Index]; !ok {
			missing = append(missing, t)
		}
	}
	ran, execStats, err := sweep.Execute(ctx, job, missing, opts, cache, core.NewScratch, plan.Run)
	stats.Executed += execStats.Executed
	stats.CacheHits += execStats.CacheHits
	if err != nil {
		return stats, fmt.Errorf("%s shard %s: %w", e.ID, spec, err)
	}
	for idx, v := range ran {
		have[idx] = v
	}
	// A resume that found the file already complete has nothing to add;
	// skip the no-op rewrite so repeated resumes leave the file alone.
	if reused && len(missing) == 0 {
		return stats, nil
	}
	if err := sweep.WriteShardFile(outPath, header, have); err != nil {
		return stats, fmt.Errorf("%s shard %s: %w", e.ID, spec, err)
	}
	return stats, nil
}

// CoordinateSweep is the coordinator side of a work-stealing
// multi-machine run (DESIGN.md §6.4): it plans every selected
// experiment at cfg, serves the plans' trials to connecting workers as
// leased chunks via sweep.Coordinate, and — once every trial has a
// result — reduces each experiment exactly once, in selection order.
// Because each plan's positional result slice is assembled identically
// to a local run's, the returned tables are byte-identical to
// -workers 1 regardless of worker count, chunk schedule, worker
// deaths, or lease reassignments.
func CoordinateSweep(ctx context.Context, selected []Experiment, cfg Config, lis net.Listener, opts sweep.CoordOptions) ([][]Table, error) {
	plans := make([]*Plan, len(selected))
	jobs := make([]sweep.CoordJob, len(selected))
	for i, e := range selected {
		plan, job, err := e.planJob(cfg)
		if err != nil {
			lis.Close()
			return nil, err
		}
		plans[i] = plan
		jobs[i] = sweep.CoordJob{Job: job, Trials: plan.Trials}
	}
	byJob, err := sweep.Coordinate(ctx, lis, jobs, opts)
	if err != nil {
		return nil, err
	}
	tables := make([][]Table, len(selected))
	for i, e := range selected {
		results := make([]any, len(plans[i].Trials))
		for j := range results {
			results[j] = byJob[i][j]
		}
		if err := reduceSpan(opts.Trace, e.ID, func() (rerr error) {
			tables[i], rerr = plans[i].Reduce(results)
			return rerr
		}); err != nil {
			return nil, fmt.Errorf("%s: reducing: %w", e.ID, err)
		}
	}
	return tables, nil
}

// DrainToDir builds a sweep.CoordOptions.Drain hook that persists each
// cancelled job's completed results into dir as a 1-of-1 SFSHARD1
// shard file named like RunShard's output, so a drained sweep resumes
// through the existing machinery: `-shard 1/1 -resume` reuses every
// persisted trial (counted as cache hits) and executes only the
// missing ones, and a file the drain completed merges as-is. The
// selection and cfg must match the CoordinateSweep call the hook is
// attached to — the shard headers are derived from the same plans.
func DrainToDir(selected []Experiment, cfg Config, dir string, logf func(format string, args ...any)) (func(jobIdx int, results map[int]any), error) {
	spec := sweep.ShardSpec{Index: 0, Count: 1}
	headers := make([]sweep.ShardHeader, len(selected))
	paths := make([]string, len(selected))
	for i, e := range selected {
		plan, job, err := e.planJob(cfg)
		if err != nil {
			return nil, err
		}
		headers[i] = sweep.ShardHeader{
			ExpID:       e.ID,
			Fingerprint: job.Fingerprint,
			ShardIndex:  spec.Index,
			ShardCount:  spec.Count,
			TotalTrials: len(plan.Trials),
		}
		paths[i] = filepath.Join(dir, e.ShardFileName(spec))
	}
	return func(jobIdx int, results map[int]any) {
		if err := sweep.WriteShardFile(paths[jobIdx], headers[jobIdx], results); err != nil {
			if logf != nil {
				logf("drain: %s: %v", paths[jobIdx], err)
			}
			return
		}
		if logf != nil {
			logf("drain: wrote %d/%d results to %s", len(results), headers[jobIdx].TotalTrials, paths[jobIdx])
		}
	}, nil
}

// SweepWorker is the worker side: it re-plans the selected experiments
// at cfg and serves leased chunks through the cache-aware
// sweep.Execute path, so a worker's local -cache still persists every
// finished trial and warm entries satisfy stolen chunks without
// recomputation. A lease for an experiment this worker did not select,
// or whose fingerprint differs from the local plan's (different seed,
// scale, or binary revision), aborts the sweep on both sides — a
// configuration skew must never be absorbed silently.
func SweepWorker(ctx context.Context, selected []Experiment, cfg Config, addr string, eopts engine.Options, cache *sweep.Cache, wopts sweep.WorkerOptions) (sweep.Stats, error) {
	type local struct {
		plan *Plan
		job  sweep.Job
	}
	locals := make(map[string]local, len(selected))
	for _, e := range selected {
		plan, job, err := e.planJob(cfg)
		if err != nil {
			return sweep.Stats{}, err
		}
		locals[e.ID] = local{plan: plan, job: job}
	}
	resolve := func(expID, fingerprint string) (*sweep.WorkerJob, error) {
		l, ok := locals[expID]
		if !ok {
			return nil, fmt.Errorf("experiment %s is not selected on this worker (check -run)", expID)
		}
		if l.job.Fingerprint != fingerprint {
			return nil, fmt.Errorf("%s plan fingerprint %.12s does not match the coordinator's %.12s — workers must run the same binary, -seed, and -scale",
				expID, l.job.Fingerprint, fingerprint)
		}
		return &sweep.WorkerJob{
			Trials: l.plan.Trials,
			Execute: func(ctx context.Context, trials []engine.Trial) (map[int]any, sweep.Stats, error) {
				return sweep.Execute(ctx, l.job, trials, eopts, cache, core.NewScratch, l.plan.Run)
			},
		}, nil
	}
	return sweep.RunWorker(ctx, addr, resolve, wopts)
}

// MergeShardFiles reassembles the full positional result slice of the
// plan at cfg from shard files and runs Reduce once. The files must
// carry this experiment's fingerprint at exactly this Config —
// sharded runs under a different seed or scale are rejected, never
// silently merged — and must jointly cover every trial.
func (e Experiment) MergeShardFiles(cfg Config, paths []string) ([]Table, error) {
	plan, job, err := e.planJob(cfg)
	if err != nil {
		return nil, err
	}
	header, results, err := sweep.Merge(paths)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	if header.ExpID != e.ID {
		return nil, fmt.Errorf("%s: shard files belong to %s", e.ID, header.ExpID)
	}
	if header.Fingerprint != job.Fingerprint {
		return nil, fmt.Errorf("%s: shard files carry plan fingerprint %.12s, this Config plans %.12s — they were produced under a different seed, scale, or codec version",
			e.ID, header.Fingerprint, job.Fingerprint)
	}
	if header.TotalTrials != len(plan.Trials) {
		return nil, fmt.Errorf("%s: shard files hold %d trials, plan has %d", e.ID, header.TotalTrials, len(plan.Trials))
	}
	tables, err := plan.Reduce(results)
	if err != nil {
		return nil, fmt.Errorf("%s: reducing: %w", e.ID, err)
	}
	return tables, nil
}
