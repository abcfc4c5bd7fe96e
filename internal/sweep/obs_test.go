package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/obs"
	"scalefree/internal/rng"
)

// TestCoordObserverSnapshot runs a coordinated sweep with the observer
// and event log attached and pins the observable contract: the final
// snapshot accounts for every trial, survives a JSON round-trip
// unchanged (the /status payload is exactly this struct), and the
// event log records the lease lifecycle with monotonic sequence
// numbers.
func TestCoordObserverSnapshot(t *testing.T) {
	trials := makeTrials(21)
	job := testJob(trials)

	observer := &CoordObserver{}
	if !reflect.DeepEqual(observer.Snapshot(), (CoordSnapshot{})) {
		t.Fatal("unattached observer does not report the zero snapshot")
	}

	var buf bytes.Buffer
	events := obs.NewEventLog(&buf)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: 2 * time.Second,
			Observer: observer, Events: events})
	defer cancel()

	stopScraping := scrapeObserver(t, observer)
	var executed atomic.Int64
	if _, err := RunWorker(context.Background(), addr,
		countingResolver(job, trials, &executed), WorkerOptions{Name: "obs-w"}); err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	stopScraping()
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)

	snap := observer.Snapshot()
	if !snap.Finished || snap.Failure != "" {
		t.Errorf("final snapshot not cleanly finished: %+v", snap)
	}
	if snap.DoneTrials != 21 || snap.TotalTrials != 21 {
		t.Errorf("final trials = %d/%d, want 21/21", snap.DoneTrials, snap.TotalTrials)
	}
	if want := []WorkerCount{{"obs-w", 21}}; !reflect.DeepEqual(snap.ByWorker, want) {
		t.Errorf("final per-worker counts = %+v, want %+v", snap.ByWorker, want)
	}
	if snap.PendingChunks != 0 || snap.ActiveLeases != 0 || snap.Workers != 0 {
		t.Errorf("final snapshot has residual scheduling state: %+v", snap)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].ExpID != job.ExpID ||
		snap.Jobs[0].Trials != 21 || snap.Jobs[0].Done != 21 {
		t.Errorf("job status = %+v", snap.Jobs)
	}

	// The /status payload is this struct marshalled as-is: a round-trip
	// through its own JSON must reproduce it exactly.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back CoordSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("JSON round-trip changed the snapshot:\n got %+v\nwant %+v", back, snap)
	}

	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	verifySweepEventLog(t, buf.Bytes(), "obs-w")
}

// checkSnapshot reports a snapshot that is internally inconsistent:
// more trials done than planned, or per-worker counts that are out of
// name order or do not sum to DoneTrials.
func checkSnapshot(s CoordSnapshot) error {
	if s.DoneTrials > s.TotalTrials {
		return fmt.Errorf("snapshot overcounts: %d done of %d", s.DoneTrials, s.TotalTrials)
	}
	sum := 0
	for i, w := range s.ByWorker {
		if i > 0 && s.ByWorker[i-1].Source >= w.Source {
			return fmt.Errorf("per-worker counts out of name order: %+v", s.ByWorker)
		}
		sum += w.Done
	}
	if sum != s.DoneTrials {
		return fmt.Errorf("per-worker counts %+v sum to %d, but %d trials are done", s.ByWorker, sum, s.DoneTrials)
	}
	return nil
}

// scrapeObserver checks every snapshot it can take while the sweep
// runs, as a /status scrape racing the coordinator would see it. The
// returned stop function waits for the scraper to exit.
func scrapeObserver(t *testing.T, observer *CoordObserver) (stop func()) {
	t.Helper()
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			if err := checkSnapshot(observer.Snapshot()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// verifySweepEventLog parses a JSONL event log written by a clean
// single-worker sweep and checks schema invariants: valid JSON per
// line, sequence numbers 1..n in order, grants balanced by completes,
// and the lifecycle endpoints present.
func verifySweepEventLog(t *testing.T, raw []byte, worker string) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("event log is empty")
	}
	counts := map[string]int{}
	for i, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("line %d has seq %d, want %d", i+1, ev.Seq, i+1)
		}
		if ev.Event == "" {
			t.Errorf("line %d has empty event name", i+1)
		}
		counts[ev.Event]++
		switch ev.Event {
		case "lease_grant", "lease_complete", "worker_join", "worker_leave":
			if ev.Worker != worker {
				t.Errorf("line %d (%s) attributes worker %q, want %q", i+1, ev.Event, ev.Worker, worker)
			}
		}
	}
	if counts["lease_grant"] == 0 {
		t.Error("no lease_grant events recorded")
	}
	if counts["lease_grant"] != counts["lease_complete"] {
		t.Errorf("grants (%d) and completes (%d) unbalanced in a clean sweep",
			counts["lease_grant"], counts["lease_complete"])
	}
	if counts["worker_join"] != 1 || counts["worker_leave"] != 1 {
		t.Errorf("worker lifecycle events = join:%d leave:%d, want 1 each",
			counts["worker_join"], counts["worker_leave"])
	}
	if counts["sweep_done"] != 1 {
		t.Errorf("sweep_done events = %d, want exactly 1", counts["sweep_done"])
	}
}

// TestCoordObserverSeesSteal: the event log records lease steals, and
// the snapshot's per-worker counts stay consistent across one. A worker
// takes a lease by hand, delivers one result and goes silent; after the
// TTL expires the chunk is stolen and a live worker finishes the sweep,
// re-delivering that result as a duplicate that must not count twice.
func TestCoordObserverSeesSteal(t *testing.T) {
	trials := makeTrials(12)
	job := testJob(trials)
	var buf bytes.Buffer
	events := obs.NewEventLog(&buf)
	observer := &CoordObserver{}
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		// IOTimeout far past the TTL so the hung connection stays up:
		// only the lease-expiry steal path can reclaim the chunk, never
		// the disconnect revoke.
		CoordOptions{ChunkSize: 4, LeaseTTL: 150 * time.Millisecond, Linger: 100 * time.Millisecond,
			IOTimeout: time.Minute, Observer: observer, Events: events})
	defer cancel()

	stopScraping := scrapeObserver(t, observer)
	dead := dialDeadWorker(t, addr, "dead")
	defer dead.wc.close()
	// One result, then silence: never pinged, never completed, so the
	// chunk must be stolen.
	m := dead.takeLease()
	payload, err := EncodeResult(float64(trials[m.Lo].Seed) * 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.wc.send(formatResult(m.ID, job.ExpID, m.Lo, payload)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); observer.Snapshot().DoneTrials == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the dead worker's result never reached the coordinator")
		}
		time.Sleep(time.Millisecond)
	}

	var executed atomic.Int64
	if _, err := RunWorker(context.Background(), addr,
		countingResolver(job, trials, &executed), WorkerOptions{Name: "live"}); err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	stopScraping()
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
	snap := observer.Snapshot()
	if want := []WorkerCount{{"dead", 1}, {"live", 11}}; !reflect.DeepEqual(snap.ByWorker, want) {
		t.Errorf("final per-worker counts = %+v, want %+v", snap.ByWorker, want)
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}

	var steals int
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, line)
		}
		if ev.Event == "lease_steal" {
			steals++
			if ev.Worker != "dead" {
				t.Errorf("steal attributed to %q, want the dead worker", ev.Worker)
			}
			if ev.Chunk == "" {
				t.Error("steal event has no chunk range")
			}
		}
	}
	if steals == 0 {
		t.Error("no lease_steal event recorded for the expired lease")
	}
}

// BenchmarkMetricsOverhead prices the observability layer (DESIGN.md
// §9.1): a no-op trial loop on the engine, bare versus carrying the
// exact per-trial instrumentation Execute adds (a timed histogram
// observation and a counter increment, resolved once outside the
// loop). The bare arm is the engine's own scheduling cost per trial.
// On no-op trials the tax is visible — two clock reads plus a few
// atomic adds next to that scheduling cost — which is the point of
// the ns/trial metric: real trials run milliseconds, so the same
// absolute cost vanishes there. Zero extra allocations is the hard
// assertion; compare the ns/trial columns for the absolute tax.
func BenchmarkMetricsOverhead(b *testing.B) {
	trials := make([]engine.Trial, 1024)
	for i := range trials {
		trials[i] = engine.Trial{Index: i, Key: "noop", Seed: rng.DeriveSeed(1, uint64(i))}
	}
	reg := obs.NewRegistry()
	ctr := reg.CounterVec("bench_trials_completed_total", "bench", "exp").With("BENCH")
	hist := reg.HistogramVec("bench_trial_seconds", "bench", "exp", nil).With("BENCH")
	variants := []struct {
		name string
		fn   func(context.Context, engine.Trial, *rng.RNG) (uint64, error)
	}{
		{"bare", func(_ context.Context, t engine.Trial, r *rng.RNG) (uint64, error) {
			return r.Uint64(), nil
		}},
		{"instrumented", func(_ context.Context, t engine.Trial, r *rng.RNG) (uint64, error) {
			t0 := time.Now()
			v := r.Uint64()
			hist.ObserveDuration(time.Since(t0))
			ctr.Inc()
			return v, nil
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(context.Background(), trials, engine.Options{Workers: 4}, v.fn); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trials)), "ns/trial")
		})
	}
}
