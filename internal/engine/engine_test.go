package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalefree/internal/obs/trace"
	"scalefree/internal/rng"
)

func makeTrials(n int) []Trial {
	trials := make([]Trial, n)
	for i := range trials {
		trials[i] = Trial{
			Index: i,
			Key:   fmt.Sprintf("trial-%d", i),
			Seed:  rng.DeriveSeed(99, uint64(i)),
		}
	}
	return trials
}

// run is RunScratch for trial functions that need no scratch.
func run[T any](ctx context.Context, trials []Trial, opts Options, fn func(context.Context, Trial, *rng.RNG) (T, error)) ([]T, error) {
	return RunScratch(ctx, trials, opts, func() struct{} { return struct{}{} },
		func(ctx context.Context, t Trial, r *rng.RNG, _ struct{}) (T, error) { return fn(ctx, t, r) })
}

// workload is one deterministic trial: a few draws from the per-trial
// RNG mixed with the trial identity.
func workload(_ context.Context, t Trial, r *rng.RNG) (uint64, error) {
	sum := uint64(t.Index)
	for i := 0; i < 100; i++ {
		sum += r.Uint64()
	}
	return sum, nil
}

func TestRunResultsInTrialOrder(t *testing.T) {
	trials := makeTrials(50)
	got, err := run(context.Background(), trials, Options{Workers: 1}, workload)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want, _ := workload(context.Background(), trials[i], rng.New(trials[i].Seed))
		if v != want {
			t.Errorf("result[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	trials := makeTrials(97)
	serial, err := run(context.Background(), trials, Options{Workers: 1}, workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 200} {
		parallel, err := run(context.Background(), trials, Options{Workers: workers}, workload)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d diverged at trial %d: %d != %d",
					workers, i, parallel[i], serial[i])
			}
		}
	}
}

func TestRunPerTrialRNGSeededFromTrialSeed(t *testing.T) {
	trials := makeTrials(8)
	got, err := run(context.Background(), trials, Options{Workers: 4},
		func(_ context.Context, _ Trial, r *rng.RNG) (uint64, error) {
			return r.Uint64(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trials {
		if want := rng.New(tr.Seed).Uint64(); got[i] != want {
			t.Errorf("trial %d RNG not seeded from Trial.Seed: %d != %d", i, got[i], want)
		}
	}
}

func TestRunErrorCarriesTrialKey(t *testing.T) {
	trials := makeTrials(10)
	boom := errors.New("boom")
	_, err := run(context.Background(), trials, Options{Workers: 1},
		func(_ context.Context, t Trial, _ *rng.RNG) (int, error) {
			if t.Index == 3 {
				return 0, boom
			}
			return t.Index, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
	if want := "trial-3"; err == nil || !contains(err.Error(), want) {
		t.Fatalf("error %q does not name the failing trial %q", err, want)
	}
}

// TestRunErrorCancelsRemainingTrials: trial 0 fails on one of two
// workers while the other holds trial 1 until the run's context is
// cancelled, so no third trial may start. The hold gives up after
// 100 ms, so an engine that does not cancel fails the test instead of
// hanging it.
func TestRunErrorCancelsRemainingTrials(t *testing.T) {
	trials := makeTrials(100)
	boom := errors.New("early failure")
	var started atomic.Int64
	_, err := run(context.Background(), trials, Options{Workers: 2},
		func(ctx context.Context, t Trial, _ *rng.RNG) (int, error) {
			started.Add(1)
			if t.Index == 0 {
				return 0, boom
			}
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Millisecond):
			}
			return t.Index, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want trial 0's failure", err)
	}
	if n := started.Load(); n > 2 {
		t.Errorf("%d trials started; the failure must stop scheduling at the 2 already running", n)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	trials := makeTrials(20)
	ran := 0
	_, err := run(ctx, trials, Options{Workers: 1},
		func(_ context.Context, t Trial, _ *rng.RNG) (int, error) {
			ran++
			if t.Index == 2 {
				cancel()
			}
			return t.Index, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran >= len(trials) {
		t.Error("cancellation did not stop trial scheduling")
	}
}

// TestRunPrefersRealErrorOverCancellationEcho pins the root-cause
// reporting rule: a context-aware trial that returns ctx.Err() after
// another trial's failure cancelled the run must not mask that failure,
// even when it sits at a lower index.
func TestRunPrefersRealErrorOverCancellationEcho(t *testing.T) {
	trials := makeTrials(2)
	boom := errors.New("root cause")
	_, err := run(context.Background(), trials, Options{Workers: 2},
		func(ctx context.Context, tr Trial, _ *rng.RNG) (int, error) {
			if tr.Index == 0 {
				// Context-aware trial: blocks until the run is cancelled,
				// then echoes the cancellation.
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return 0, boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("cancellation echo masked the root cause: %v", err)
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	trials := makeTrials(4)
	_, err := run(context.Background(), trials, Options{Workers: 2},
		func(_ context.Context, t Trial, _ *rng.RNG) (int, error) {
			if t.Index == 1 {
				panic("kaboom")
			}
			return t.Index, nil
		})
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestRunProgressStream(t *testing.T) {
	trials := makeTrials(30)
	var events []Progress
	_, err := run(context.Background(), trials, Options{
		Workers:  4,
		Progress: func(p Progress) { events = append(events, p) },
	}, workload)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(trials) {
		t.Fatalf("got %d progress events, want %d", len(events), len(trials))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(trials) {
			t.Errorf("event %d: Done=%d Total=%d, want Done=%d Total=%d",
				i, ev.Done, ev.Total, i+1, len(trials))
		}
	}
}

func TestRunEmptyPlan(t *testing.T) {
	got, err := run(context.Background(), nil, Options{}, workload)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty plan: got %v, %v", got, err)
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if w := (Options{Workers: 8}).effectiveWorkers(3); w != 3 {
		t.Errorf("workers capped at trials: got %d, want 3", w)
	}
	if w := (Options{Workers: 2}).effectiveWorkers(100); w != 2 {
		t.Errorf("explicit workers: got %d, want 2", w)
	}
	if w := (Options{}).effectiveWorkers(100); w < 1 {
		t.Errorf("default workers: got %d, want >= 1", w)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestRunScratchPerWorkerScratch verifies the scratch contract: the
// factory runs once per worker goroutine, every trial receives a
// non-nil scratch, and results match the scratch-free path.
func TestRunScratchPerWorkerScratch(t *testing.T) {
	type scratch struct{ uses int }
	trials := make([]Trial, 64)
	for i := range trials {
		trials[i] = Trial{Index: i, Key: "t", Seed: rng.DeriveSeed(9, uint64(i))}
	}
	const workers = 4
	var mu sync.Mutex
	made := 0
	results, err := RunScratch(context.Background(), trials, Options{Workers: workers},
		func() *scratch {
			mu.Lock()
			made++
			mu.Unlock()
			return &scratch{}
		},
		func(_ context.Context, tr Trial, r *rng.RNG, s *scratch) (uint64, error) {
			if s == nil {
				t.Error("trial received nil scratch")
				return 0, nil
			}
			s.uses++
			return r.Uint64(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if made != workers {
		t.Errorf("scratch factory ran %d times, want one per worker (%d)", made, workers)
	}
	want, err := run(context.Background(), trials, Options{Workers: 1},
		func(_ context.Context, tr Trial, r *rng.RNG) (uint64, error) { return r.Uint64(), nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("trial %d: scratch path %d != scratch-free path %d", i, results[i], want[i])
		}
	}
}

// phaseScratch carries the worker's trace writer into trials, as
// core.Scratch does, so a trial can record phase spans.
type phaseScratch struct{ w *trace.Writer }

func (s *phaseScratch) AttachTrace(w *trace.Writer) { s.w = w }

// tracedRun runs trials that each record two phase spans inside their
// trial span (six records a trial) and returns the recorder's records
// and the Progress stream.
func tracedRun(t *testing.T, trials []Trial, writerCap int) (*trace.Recorder, []trace.Record, []Progress) {
	t.Helper()
	rec := trace.New()
	rec.WriterCap = writerCap
	var progress []Progress
	opts := Options{Workers: 2, Trace: rec, Progress: func(p Progress) { progress = append(progress, p) }}
	_, err := RunScratch(context.Background(), trials, opts,
		func() *phaseScratch { return &phaseScratch{} },
		func(_ context.Context, _ Trial, r *rng.RNG, s *phaseScratch) (uint64, error) {
			s.w.Begin("generate", "phase")
			v := r.Uint64()
			s.w.End()
			s.w.Begin("search", "phase")
			v += r.Uint64()
			s.w.End()
			return v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return rec, rec.Drain(), progress
}

// trialSpans pairs B/E records per lane and returns each trial span's
// duration by trial key, failing on a stream that does not nest.
func trialSpans(t *testing.T, recs []trace.Record) map[string]int64 {
	t.Helper()
	open := map[int32][]trace.Record{}
	spans := map[string]int64{}
	for _, rec := range recs {
		switch rec.Ph {
		case 'B':
			open[rec.TID] = append(open[rec.TID], rec)
		case 'E':
			st := open[rec.TID]
			if len(st) == 0 {
				t.Fatalf("lane %d: E with no open span", rec.TID)
			}
			b := st[len(st)-1]
			open[rec.TID] = st[:len(st)-1]
			if b.Cat == "trial" {
				if _, dup := spans[b.Name]; dup {
					t.Fatalf("trial %s has two spans", b.Name)
				}
				spans[b.Name] = rec.TS - b.TS
			}
		}
	}
	for tid, st := range open {
		if len(st) > 0 {
			t.Fatalf("lane %d: %d spans never ended", tid, len(st))
		}
	}
	return spans
}

// TestTraceKeepsEveryTrialSpan: a plan whose records exceed the writer
// capacity many times over loses nothing, because a full writer hands
// its records to the recorder; and each trial's span lasts exactly its
// Progress.Elapsed, since both come from the engine's one clock pair.
func TestTraceKeepsEveryTrialSpan(t *testing.T) {
	trials := makeTrials(300) // 1,800 records through 16-record writers
	rec, recs, progress := tracedRun(t, trials, 16)
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("dropped %d records; a trial needs 6 of a writer's 16", d)
	}
	spans := trialSpans(t, recs)
	if len(spans) != len(trials) || len(progress) != len(trials) {
		t.Fatalf("%d trial spans and %d progress records for %d trials", len(spans), len(progress), len(trials))
	}
	for _, p := range progress {
		if got := spans[p.Trial.Key]; got != int64(p.Elapsed) {
			t.Fatalf("trial %s: span lasts %d ns, Progress.Elapsed %d ns", p.Trial.Key, got, int64(p.Elapsed))
		}
	}
}

// TestTracePanicInsidePhaseEndsTrialSpan: a trial that panics while a
// phase span is open fails the run, and the engine still closes both
// the phase and the trial span at the trial's end, start+Elapsed, so
// the export is balanced and the trial span lasts its Progress.Elapsed.
func TestTracePanicInsidePhaseEndsTrialSpan(t *testing.T) {
	rec := trace.New()
	var progress []Progress
	opts := Options{Workers: 1, Trace: rec, Progress: func(p Progress) { progress = append(progress, p) }}
	_, err := RunScratch(context.Background(), makeTrials(1), opts,
		func() *phaseScratch { return &phaseScratch{} },
		func(_ context.Context, _ Trial, _ *rng.RNG, s *phaseScratch) (int, error) {
			s.w.Begin("generate", "phase")
			panic("boom")
		})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the trial's panic", err)
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("dropped %d records", d)
	}
	recs := rec.Drain()
	spans := trialSpans(t, recs) // fails unless every B has its E
	if len(recs) != 4 || len(progress) != 1 {
		t.Fatalf("%d records and %d progress records, want 4 and 1", len(recs), len(progress))
	}
	elapsed := int64(progress[0].Elapsed)
	if got := spans[progress[0].Trial.Key]; got != elapsed {
		t.Fatalf("trial span lasts %d ns, Progress.Elapsed %d ns", got, elapsed)
	}
	if end := recs[0].TS + elapsed; recs[2].TS != end || recs[3].TS != end {
		t.Fatalf("phase ends at %d and trial at %d, want both at start+Elapsed %d", recs[2].TS, recs[3].TS, end)
	}
}

// TestTraceTinyWriterKeepsEveryTrial: a 4-record writer keeps all
// twenty 6-record trials, each trial span lasting its Progress.Elapsed,
// and the export carries no trace_dropped instant.
func TestTraceTinyWriterKeepsEveryTrial(t *testing.T) {
	trials := makeTrials(20)
	rec, recs, progress := tracedRun(t, trials, 4)
	if d := rec.Dropped(); d != 0 || len(recs) != 6*len(trials) {
		t.Fatalf("kept %d of %d records, %d dropped", len(recs), 6*len(trials), d)
	}
	spans := trialSpans(t, recs)
	if len(spans) != len(trials) {
		t.Fatalf("%d trial spans for %d trials", len(spans), len(trials))
	}
	for _, p := range progress {
		if got := spans[p.Trial.Key]; got != int64(p.Elapsed) {
			t.Fatalf("trial %s: span lasts %d ns, Progress.Elapsed %d ns", p.Trial.Key, got, int64(p.Elapsed))
		}
	}
	var buf strings.Builder
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"trace_dropped"`) {
		t.Fatal("a whole trace exported a trace_dropped instant")
	}
}
