package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"scalefree/internal/rng"
)

// fakeClock steps a RateTracker through scripted time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracker(window time.Duration) (*RateTracker, *fakeClock) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	rt := NewRateTracker()
	rt.window = window
	rt.now = clock.now
	return rt, clock
}

func TestRateTrackerSteadyState(t *testing.T) {
	rt, clock := newTestTracker(10 * time.Second)
	// 100 trials total, one completion per 500ms => 2 trials/s.
	for done := 1; done <= 40; done++ {
		clock.advance(500 * time.Millisecond)
		rt.Observe(Progress{Done: done, Total: 100})
	}
	snap := rt.Snapshot()
	if snap.Done != 40 || snap.Total != 100 {
		t.Fatalf("snapshot counts %d/%d", snap.Done, snap.Total)
	}
	if snap.Rate < 1.8 || snap.Rate > 2.2 {
		t.Errorf("rate = %.2f trials/s, want ~2", snap.Rate)
	}
	wantETA := 30 * time.Second // 60 remaining at 2/s
	if snap.ETA < wantETA-3*time.Second || snap.ETA > wantETA+3*time.Second {
		t.Errorf("ETA = %v, want ~%v", snap.ETA, wantETA)
	}
}

func TestRateTrackerWindowTracksSlowdown(t *testing.T) {
	rt, clock := newTestTracker(10 * time.Second)
	// Fast phase: 20 completions at 10/s.
	for done := 1; done <= 20; done++ {
		clock.advance(100 * time.Millisecond)
		rt.Observe(Progress{Done: done, Total: 40})
	}
	// Slow phase: 5 completions at 0.2/s. The fast phase has aged out
	// of the window, so the rate must reflect the slow regime, not the
	// whole-run average (~0.9/s).
	for done := 21; done <= 25; done++ {
		clock.advance(5 * time.Second)
		rt.Observe(Progress{Done: done, Total: 40})
	}
	snap := rt.Snapshot()
	if snap.Rate > 0.5 {
		t.Errorf("windowed rate = %.2f trials/s, still dominated by the fast phase", snap.Rate)
	}
}

// TestRateTrackerUnbiasedAtSmallN pins the fencepost fix exactly: N
// retained completions span N−1 intervals, so 3 completions 1s apart
// observed at the moment of the last one are 2 trials / 2 seconds =
// 1.0 trials/s. The pre-fix estimator reported 3/2 = 1.5 — a 50%
// overestimate at N=3, shrinking only as the window fills.
func TestRateTrackerUnbiasedAtSmallN(t *testing.T) {
	rt, clock := newTestTracker(time.Minute)
	for done := 1; done <= 3; done++ {
		clock.advance(time.Second)
		rt.Observe(Progress{Done: done, Total: 10})
	}
	snap := rt.Snapshot()
	if snap.Rate != 1.0 {
		t.Errorf("rate = %v trials/s, want exactly 1.0", snap.Rate)
	}
	// 7 remaining at 1/s.
	if snap.ETA != 7*time.Second {
		t.Errorf("ETA = %v, want 7s", snap.ETA)
	}

	// The estimator also charges idle time since the last completion:
	// two more quiet seconds dilute the rate to 2 events / 4 seconds.
	clock.advance(2 * time.Second)
	if got := rt.Snapshot().Rate; got != 0.5 {
		t.Errorf("rate after idle = %v trials/s, want 0.5", got)
	}
}

func TestRateTrackerEmptyAndDone(t *testing.T) {
	rt, _ := newTestTracker(time.Second)
	snap := rt.Snapshot()
	if snap.Rate != 0 || snap.ETA != 0 {
		t.Errorf("empty tracker: %+v", snap)
	}
	if snap.String() != "rate n/a" {
		t.Errorf("empty String() = %q", snap.String())
	}

	rt, clock := newTestTracker(time.Second)
	clock.advance(time.Second)
	rt.Observe(Progress{Done: 1, Total: 1})
	clock.advance(500 * time.Millisecond)
	snap = rt.Snapshot()
	if snap.ETA != 0 {
		t.Errorf("finished run has ETA %v", snap.ETA)
	}
	if snap.Rate <= 0 {
		t.Errorf("single completion gives no whole-run rate: %+v", snap)
	}
}

// TestRateTrackerETAUnknownWithoutWindow pins the ETA fix: the
// whole-run fallback rate (fewer than two completions in the window)
// must not feed the ETA. A burst followed by a stall long enough to
// empty the window used to extrapolate a garbage ETA from the stale
// whole-run average; now the ETA is unknown (zero) and String renders
// it as "ETA ∞" until the window refills.
func TestRateTrackerETAUnknownWithoutWindow(t *testing.T) {
	// One completion: whole-run rate exists, ETA must not.
	rt, clock := newTestTracker(10 * time.Second)
	clock.advance(time.Second)
	rt.Observe(Progress{Done: 1, Total: 100})
	clock.advance(time.Second)
	snap := rt.Snapshot()
	if snap.Rate <= 0 {
		t.Fatalf("single completion gives no whole-run rate: %+v", snap)
	}
	if snap.ETA != 0 {
		t.Errorf("ETA from the whole-run fallback = %v, want 0 (unknown)", snap.ETA)
	}
	if got := snap.String(); !strings.Contains(got, "ETA ∞") {
		t.Errorf("String() = %q, want an ETA ∞ marker", got)
	}

	// Burst then stall: the window empties, so the ETA must drop back
	// to unknown instead of extrapolating the stale whole-run average.
	rt, clock = newTestTracker(10 * time.Second)
	for done := 1; done <= 20; done++ {
		clock.advance(100 * time.Millisecond)
		rt.Observe(Progress{Done: done, Total: 100})
	}
	if eta := rt.Snapshot().ETA; eta <= 0 {
		t.Fatalf("windowed ETA missing right after the burst: %v", eta)
	}
	clock.advance(time.Minute)
	snap = rt.Snapshot()
	if snap.ETA != 0 {
		t.Errorf("post-stall ETA = %v, want 0 (unknown)", snap.ETA)
	}
	if snap.Rate <= 0 {
		t.Errorf("post-stall whole-run rate missing: %+v", snap)
	}
	if got := snap.String(); !strings.Contains(got, "ETA ∞") {
		t.Errorf("post-stall String() = %q, want an ETA ∞ marker", got)
	}

	// A finished run stays silent: no remaining work, no ∞.
	done := RateSnapshot{Done: 5, Total: 5, Rate: 1}
	if got := done.String(); strings.Contains(got, "∞") {
		t.Errorf("finished String() = %q, must not render ∞", got)
	}
}

// TestRateTrackerResumedRun: a coordinator resumed on a cache reports
// Done counting the cached trials in its first Progress event. The
// whole-run fallback must rate only what this tracker saw complete, so
// its first line reads like a fresh run's, not 1901 trials in δt.
func TestRateTrackerResumedRun(t *testing.T) {
	resumed, clock := newTestTracker(10 * time.Second)
	fresh, freshClock := newTestTracker(10 * time.Second)
	clock.advance(time.Second)
	freshClock.advance(time.Second)
	resumed.Observe(Progress{Done: 1901, Total: 4200})
	fresh.Observe(Progress{Done: 1, Total: 4200})
	clock.advance(250 * time.Millisecond)
	freshClock.advance(250 * time.Millisecond)
	got, want := resumed.Snapshot(), fresh.Snapshot()
	if got.Rate != want.Rate || got.Rate != 4 {
		t.Errorf("resumed rate %v trials/s, fresh %v; want both 4", got.Rate, want.Rate)
	}
	if got.Done != 1901 {
		t.Errorf("resumed Done = %d, want 1901", got.Done)
	}
}

// TestRateTrackerWithEngine wires the tracker into a real engine run
// via the Progress hook — the composition cmd/experiments uses.
func TestRateTrackerWithEngine(t *testing.T) {
	trials := make([]Trial, 50)
	for i := range trials {
		trials[i] = Trial{Index: i, Key: "t", Seed: uint64(i)}
	}
	rt := NewRateTracker()
	opts := Options{Workers: 4, Progress: func(p Progress) { rt.Observe(p) }}
	_, err := run(context.Background(), trials, opts,
		func(_ context.Context, tr Trial, _ *rng.RNG) (int, error) { return tr.Index, nil })
	if err != nil {
		t.Fatal(err)
	}
	snap := rt.Snapshot()
	if snap.Done != 50 || snap.Total != 50 {
		t.Errorf("tracker saw %d/%d completions", snap.Done, snap.Total)
	}
}
