// Package engine executes experiment trials on a bounded worker pool.
//
// A Trial is the unit of parallel work: an index into its plan, a
// human-readable key, and a derived seed. RunScratch executes a pure
// trial function over a slice of trials and returns the results in
// trial order, so a deterministic reduction over the result slice
// produces output that is bit-identical regardless of the worker
// count. The contract the caller must honour is that the trial
// function depends only on (Trial, r) — never on shared mutable state
// or on the order in which other trials complete. Shared *read-only*
// state (a graph generated at plan time, an algorithm value) is fine.
//
// Each trial gets a private RNG seeded from Trial.Seed, which is the
// rng package's intended concurrency model: one generator per
// goroutine, streams fanned out with rng.DeriveSeed.
//
// Each worker goroutine also owns one scratch value (built by a factory
// at worker start) that is handed to every trial the worker executes.
// Scratch is for reusable buffers only — trial *results* must still be
// a pure function of (Trial, r), so a trial may use the scratch's
// memory but never read information another trial left behind. This
// is what makes repeated fixed-size trials allocation-free without
// breaking the bit-identical-across-worker-counts guarantee.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scalefree/internal/obs/trace"
	"scalefree/internal/rng"
)

// Trial identifies one independent unit of work inside a plan.
type Trial struct {
	// Index is the trial's position in the plan; RunScratch places its
	// result at this position in the returned slice.
	Index int
	// Key labels the trial for progress output and error messages,
	// e.g. "E1/p=0.25/m=1/degree-greedy-weak/n=512/rep=3".
	Key string
	// Seed seeds the trial's private RNG.
	Seed uint64
}

// Progress is the one record of an executed trial, so whatever it
// feeds agrees with the trace. Done counts completed trials
// (successful or not) across the whole run; Elapsed is the trial's
// duration, to the nanosecond its trial span's.
type Progress struct {
	Done    int
	Total   int
	Trial   Trial
	Elapsed time.Duration
	Err     error
}

// Options configures one engine run.
type Options struct {
	// Workers bounds the number of concurrently executing trials.
	// Values <= 0 default to runtime.GOMAXPROCS(0).
	Workers int
	// Progress, if non-nil, is invoked after every trial completes.
	// Calls are serialized under a lock; keep the callback fast.
	Progress func(Progress)
	// Trace, if non-nil, records a span per trial into a per-worker
	// trace writer. Scratch values implementing trace.Attacher receive
	// the worker's writer so trial phases can record child spans.
	// Tracing observes the run; results are unaffected.
	Trace *trace.Recorder
}

func (o Options) effectiveWorkers(trials int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > trials {
		w = trials
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunScratch executes fn over trials on a bounded worker pool and
// returns the results in trial order. newScratch is called once per
// worker goroutine, and its value is passed to every trial that worker
// executes (see the package comment); it may return nil for
// pointer-typed scratch, and fn must then allocate afresh. The first
// trial error cancels the run (no new trials start; in-flight trials
// finish) and is returned wrapped with its trial key; with several
// concurrent failures the lowest-indexed one that actually ran wins,
// so single-failure error reporting is deterministic. Cancellation of
// ctx likewise stops the run and surfaces ctx.Err(). A panicking trial
// is recovered and reported as an error rather than tearing down the
// process.
func RunScratch[T, S any](ctx context.Context, trials []Trial, opts Options, newScratch func() S, fn func(ctx context.Context, t Trial, r *rng.RNG, scratch S) (T, error)) ([]T, error) {
	results := make([]T, len(trials))
	if len(trials) == 0 {
		return results, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next atomic.Int64
		errs = make([]error, len(trials))
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	report := func(t Trial, elapsed time.Duration, err error) {
		if opts.Progress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		opts.Progress(Progress{Done: done, Total: len(trials), Trial: t, Elapsed: elapsed, Err: err})
	}
	for w := opts.effectiveWorkers(len(trials)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := newScratch()
			var tw *trace.Writer
			if opts.Trace != nil {
				tw = opts.Trace.Writer()
				defer opts.Trace.Release(tw)
				if a, ok := any(scratch).(trace.Attacher); ok {
					a.AttachTrace(tw)
				}
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(trials) {
					return
				}
				if ctx.Err() != nil {
					// Drain without running: the run is already doomed,
					// and skipped trials must not masquerade as failures.
					continue
				}
				res, elapsed, err := runTrial(ctx, trials[i], scratch, tw, fn)
				if err != nil {
					errs[i] = err
					cancel()
				} else {
					results[i] = res
				}
				report(trials[i], elapsed, err)
			}
		}()
	}
	wg.Wait()

	// Prefer a real failure over a cancellation echo: a context-aware
	// trial that returns ctx.Err() after another trial failed must not
	// mask the root cause. Within each class the lowest index wins, so
	// single-failure reporting is deterministic.
	cancelledIdx := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelledIdx < 0 {
				cancelledIdx = i
			}
			continue
		}
		return nil, fmt.Errorf("engine: trial %d (%s): %w", i, trials[i].Key, err)
	}
	if cancelledIdx >= 0 {
		return nil, fmt.Errorf("engine: trial %d (%s): %w",
			cancelledIdx, trials[cancelledIdx].Key, errs[cancelledIdx])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// runTrial runs one trial in its span with a fresh RNG, converting a
// panic into an error so one bad trial cannot take down the pool. Its
// start and end are the engine's one clock pair per trial; the
// duration is observability output and never reaches a result. The
// end closes every span still open, the trial span and any phase a
// panic unwound, so each ends at start+elapsed.
//
//sf:wallclock — per-trial timing is observability output only.
func runTrial[T, S any](ctx context.Context, t Trial, scratch S, tw *trace.Writer, fn func(ctx context.Context, t Trial, r *rng.RNG, scratch S) (T, error)) (res T, elapsed time.Duration, err error) {
	start := time.Now()
	tw.BeginAt(start, t.Key, "trial")
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: trial panicked: %v", p)
		}
		elapsed = time.Since(start)
		tw.EndAllAt(start.Add(elapsed))
	}()
	res, err = fn(ctx, t, rng.New(t.Seed), scratch)
	return // the deferred call sets elapsed and ends the span
}
