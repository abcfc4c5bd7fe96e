package sweep

import (
	"context"
	"fmt"

	"scalefree/internal/engine"
	"scalefree/internal/obs/trace"
	"scalefree/internal/rng"
)

// Job names the plan slice an execution belongs to: the experiment and
// the fingerprint of the full plan the trials were drawn from. Cache
// addressing and shard-file headers both derive from it.
type Job struct {
	ExpID       string
	Fingerprint string
}

// Stats summarizes one Execute call. Executed + CacheHits equals the
// number of trials requested when the run completes; on error or
// cancellation it counts what actually happened, which is what resume
// tests assert on.
type Stats struct {
	// Executed counts trials that ran to completion: their function
	// returned a result and, when a cache is attached, the result was
	// persisted. Trials skipped by cancellation or aborted by the
	// failing trial are not counted.
	Executed int
	// CacheHits counts trials satisfied from the cache without running.
	CacheHits int
}

func (s Stats) String() string {
	return fmt.Sprintf("%d executed, %d cached", s.Executed, s.CacheHits)
}

// Execute runs a subset of a plan's trials — possibly all of them, or
// one shard's Filter output — on the engine, consulting an optional
// content-addressed cache per trial. Results come back keyed by plan
// trial index, so callers reassemble positional slices regardless of
// which subset ran where.
//
// Cache reads happen before the engine starts: hits never occupy a
// worker and never appear in progress reporting (Progress.Total counts
// only trials that will actually run, keeping rate and ETA estimates
// honest). Cache writes happen inside the trial function, immediately
// after each trial completes — not after the run — so a cancelled
// sweep has persisted every finished trial and resumes exactly where
// it stopped. A failed cache write fails the trial: the caller asked
// for persistence, and a sweep that silently cannot resume is worse
// than a loud disk error.
//
// Execute reads no clock: a hook before opts.Progress feeds the trial
// metrics and Stats.Executed from the engine's one record per trial.
//
// newScratch and fn follow engine.RunScratch's contract; fn's result
// must be a registered codec type whenever cache is non-nil.
func Execute[S any](
	ctx context.Context,
	job Job,
	trials []engine.Trial,
	opts engine.Options,
	cache *Cache,
	newScratch func() S,
	fn func(ctx context.Context, t engine.Trial, r *rng.RNG, scratch S) (any, error),
) (map[int]any, Stats, error) {
	results := make(map[int]any, len(trials))
	var stats Stats

	run := trials
	if cache != nil {
		run = make([]engine.Trial, 0, len(trials))
		for _, t := range trials {
			if v, ok := lookupTrial(cache, job.ExpID, job.Fingerprint, t); ok {
				results[t.Index] = v
				stats.CacheHits++
				continue
			}
			run = append(run, t)
		}
		// Tag the timeline with the cache outcome for this batch: a
		// lease that resolved mostly from cache explains a short lease
		// span without guessing.
		if opts.Trace.Enabled() {
			opts.Trace.Emit(trace.Record{Ph: 'i', Name: "cache", Cat: "sweep",
				Arg: fmt.Sprintf("%s hits=%d misses=%d", job.ExpID, stats.CacheHits, len(run))})
		}
		inner := fn
		fn = func(ctx context.Context, t engine.Trial, r *rng.RNG, scratch S) (any, error) {
			v, err := inner(ctx, t, r, scratch)
			if err != nil {
				return nil, err
			}
			if err := storeTrial(cache, job.ExpID, job.Fingerprint, t, v); err != nil {
				return nil, fmt.Errorf("caching result: %w", err)
			}
			return v, nil
		}
	}

	// The engine serializes Progress calls and returns after the last,
	// so stats needs no lock.
	done, failed := mTrialsCompleted.With(job.ExpID), mTrialFailures.With(job.ExpID)
	secs, next := mTrialSeconds.With(job.ExpID), opts.Progress
	opts.Progress = func(p engine.Progress) {
		secs.ObserveDuration(p.Elapsed)
		if p.Err != nil {
			failed.Inc()
		} else {
			done.Inc()
			stats.Executed++
		}
		if next != nil {
			next(p)
		}
	}
	ran, err := engine.RunScratch(ctx, run, opts, newScratch, fn)
	if err != nil {
		// The engine returns no results on failure, but every trial
		// counted here completed (and, with a cache, was persisted)
		// before the cancellation — interruption tests assert on it.
		return nil, stats, err
	}
	for i, t := range run {
		results[t.Index] = ran[i]
	}
	return results, stats, nil
}
