package engine

import (
	"fmt"
	"sync"
	"time"
)

// RateTracker aggregates Progress events into a sliding-window
// throughput estimate and an ETA — the progress hook for long
// multi-shard sweeps where per-trial lines alone don't say when the
// run will finish. Feed it every Progress event (Observe is safe from
// the engine's serialized progress callback and from concurrent
// readers) and render Snapshot wherever progress is displayed.
//
// The rate is measured over a trailing window rather than the whole
// run, so it tracks the current trial mix: scaling sweeps interleave
// cheap small-n and expensive large-n trials, and a whole-run average
// would over-promise exactly when the expensive tail begins.
type RateTracker struct {
	mu     sync.Mutex
	window time.Duration
	times  []time.Time // completion timestamps, pruned to the window
	done   int
	total  int
	seen   int              // completions this tracker observed
	start  time.Time        // when it observed the first
	now    func() time.Time // injectable clock for tests
}

// NewRateTracker builds a tracker measuring throughput over the given
// trailing window; window <= 0 defaults to 30 seconds.
func NewRateTracker(window time.Duration) *RateTracker {
	if window <= 0 {
		window = 30 * time.Second
	}
	return &RateTracker{window: window, now: time.Now}
}

// Observe records one completed trial.
func (rt *RateTracker) Observe(p Progress) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	t := rt.now()
	if rt.start.IsZero() {
		rt.start = t
	}
	rt.done = p.Done
	rt.total = p.Total
	rt.seen++
	rt.times = append(rt.times, t)
	rt.prune(t)
}

// prune drops timestamps older than the window. Called with mu held.
func (rt *RateTracker) prune(now time.Time) {
	cut := now.Add(-rt.window)
	i := 0
	for i < len(rt.times) && rt.times[i].Before(cut) {
		i++
	}
	if i > 0 {
		rt.times = append(rt.times[:0], rt.times[i:]...)
	}
}

// RateSnapshot is a point-in-time view of aggregate sweep progress.
type RateSnapshot struct {
	Done  int
	Total int
	// Rate is the completion throughput in trials per second over the
	// trailing window (falling back to the whole-run average while the
	// window holds fewer than two samples). Zero means unknown.
	Rate float64
	// ETA estimates the time to finish the remaining trials — computed
	// only from the windowed rate, never the whole-run fallback. Zero
	// means unknown (no current-throughput signal: fewer than two
	// completions in the window) or already done; String renders the
	// unknown-with-work-remaining case as "ETA ∞".
	ETA time.Duration
}

// String renders the snapshot for progress lines, e.g.
// "12.3 trials/s, ETA 1m40s" — or "ETA ∞" when trials remain but the
// window holds no throughput signal to estimate from.
func (s RateSnapshot) String() string {
	if s.Rate <= 0 {
		return "rate n/a"
	}
	out := fmt.Sprintf("%.1f trials/s", s.Rate)
	switch {
	case s.ETA > 0:
		out += fmt.Sprintf(", ETA %s", s.ETA.Round(time.Second))
	case s.Done < s.Total:
		out += ", ETA ∞"
	}
	return out
}

// Snapshot computes the current windowed rate and ETA.
func (rt *RateTracker) Snapshot() RateSnapshot {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := rt.now()
	rt.prune(now)
	snap := RateSnapshot{Done: rt.done, Total: rt.total}
	switch {
	case len(rt.times) >= 2:
		// Unbiased windowed estimator: conditioning on the oldest
		// retained completion at times[0], the observation interval
		// (times[0], now] contains N−1 completions, not N — counting
		// all N over that span is a fencepost error that overestimates
		// the rate by N/(N−1), worst exactly when few samples remain.
		span := now.Sub(rt.times[0])
		if span > 0 {
			snap.Rate = float64(len(rt.times)-1) / span.Seconds()
		}
		if remaining := rt.total - rt.done; remaining > 0 && snap.Rate > 0 {
			snap.ETA = time.Duration(float64(remaining) / snap.Rate * float64(time.Second))
		}
	case rt.seen > 0 && now.After(rt.start):
		// Whole-run fallback: a rough rate is still worth showing, but
		// no ETA comes from it — after a stall long enough to empty the
		// window, the whole-run average says nothing about current
		// throughput, and an ETA extrapolated from it is garbage. The
		// ETA stays zero (rendered as ∞) until the window refills. It
		// counts only the completions observed here: Done also counts
		// trials a resumed run found in its cache before the clock
		// started.
		snap.Rate = float64(rt.seen) / now.Sub(rt.start).Seconds()
	}
	return snap
}
