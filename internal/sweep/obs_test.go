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

	stopScraping := scrapeObserver(t, observer, 4)
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

// checkSnapshot reports a snapshot that is not one consistent cut of a
// sweep leased in chunks of at most chunkSize trials: more trials done
// than planned, per-worker counts that are out of name order or do not
// sum to DoneTrials, or, before the sweep finished, a trial without a
// result that sits in no pending chunk and no active lease.
func checkSnapshot(s CoordSnapshot, chunkSize int) error {
	if s.DoneTrials > s.TotalTrials {
		return fmt.Errorf("snapshot overcounts: %d done of %d", s.DoneTrials, s.TotalTrials)
	}
	if !s.Finished && s.DoneTrials+chunkSize*(s.PendingChunks+s.ActiveLeases) < s.TotalTrials {
		return fmt.Errorf("snapshot strands trials: %d of %d done, but %d pending chunks and %d leases of at most %d trials hold the rest",
			s.DoneTrials, s.TotalTrials, s.PendingChunks, s.ActiveLeases, chunkSize)
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
// returned stop function waits for the scraper to exit and reports how
// many of the snapshots it checked were taken mid-sweep.
func scrapeObserver(t *testing.T, observer *CoordObserver, chunkSize int) (stop func() (midSweep int)) {
	t.Helper()
	quit := make(chan struct{})
	done := make(chan struct{})
	var taken int
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			s := observer.Snapshot()
			if err := checkSnapshot(s, chunkSize); err != nil {
				t.Error(err)
				return
			}
			if s.TotalTrials > 0 && !s.Finished {
				taken++
			}
		}
	}()
	return func() int {
		close(quit)
		<-done
		return taken
	}
}

// TestSnapshotIsOneCut: a /status scrape racing a busy fleet reads one
// consistent cut every time (checkSnapshot). Four workers run chunks
// of 10 ms each under a 100 ms TTL, while a fifth takes leases and
// delivers one result of each: it answers two of them with an early
// COMPLETE, whose missing trials go back on the queue, and then
// stalls past the TTL, so its last lease is stolen.
func TestSnapshotIsOneCut(t *testing.T) {
	const chunkSize = 4
	const ttl = 100 * time.Millisecond
	trials := makeTrials(240)
	job := testJob(trials)
	var buf bytes.Buffer
	events := obs.NewEventLog(&buf)
	observer := &CoordObserver{}
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		// IOTimeout far past the TTL, so the stalled lease is stolen,
		// never revoked with its connection.
		CoordOptions{ChunkSize: chunkSize, LeaseTTL: ttl, Linger: 100 * time.Millisecond,
			IOTimeout: time.Minute, Observer: observer, Events: events})
	defer cancel()
	stopScraping := scrapeObserver(t, observer, chunkSize)

	// The staller leases before the fleet starts, so its stalled chunk
	// is one the sweep cannot finish without stealing.
	staller := dialDeadWorker(t, addr, "staller")
	defer staller.wc.close()
	for i := 0; i < 3; i++ {
		m := staller.takeLease()
		payload, err := EncodeResult(float64(trials[m.Lo].Seed) * 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := staller.wc.send(formatResult(m.ID, job.ExpID, m.Lo, payload)); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			break // stall: never pinged, never completed
		}
		if err := staller.wc.send(fmt.Sprintf("COMPLETE %d", m.ID)); err != nil {
			t.Fatal(err)
		}
		if line, err := staller.wc.recv(); err != nil || line != "OK" {
			t.Fatalf("early COMPLETE answered %q, %v; want OK", line, err)
		}
	}

	errs := make(chan error, 4)
	var executed atomic.Int64
	for w := 0; w < 4; w++ {
		go func(w int) {
			counting := countingResolver(job, trials, &executed)
			slow := func(expID, fingerprint string) (*WorkerJob, error) {
				wj, err := counting(expID, fingerprint)
				if err != nil {
					return nil, err
				}
				execute := wj.Execute
				wj.Execute = func(ctx context.Context, sub []engine.Trial) (map[int]any, Stats, error) {
					select {
					case <-time.After(10 * time.Millisecond):
					case <-ctx.Done():
						return nil, Stats{}, ctx.Err()
					}
					return execute(ctx, sub)
				}
				return wj, nil
			}
			_, err := RunWorker(context.Background(), addr, slow, WorkerOptions{Name: fmt.Sprintf("w%d", w)})
			errs <- err
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	out := <-outcome
	midSweep := stopScraping()
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
	if midSweep == 0 {
		t.Error("the scraper took no snapshot while the sweep ran")
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"event":"lease_steal"`)) {
		t.Error("the stalled lease was never stolen")
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

	stopScraping := scrapeObserver(t, observer, 4)
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
