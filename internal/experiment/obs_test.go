package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/faultnet"
	"scalefree/internal/obs"
	"scalefree/internal/sweep"
)

// TestGoldenObservedChaosSweep is the determinism-boundary guarantee
// for the observability layer: a coordinated chaos sweep with
// everything turned on — event log, coordinator observer, fault-event
// bridge, and a live ops plane being scraped concurrently throughout —
// still renders tables matching the single-process run's recorded
// digest. Metrics and events observe the sweep; they must never feed
// it.
func TestGoldenObservedChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	exp, _ := ByID("E4")
	cfg := smokeConfig

	// Full observability stack, exactly as cmd/experiments wires it:
	// JSONL event log on disk, fault events bridged into the log, the
	// observer feeding a /status payload, and the ops handler serving
	// the process-global registry.
	eventsPath := filepath.Join(t.TempDir(), "events.jsonl")
	events, err := obs.OpenEventLog(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	observer := &sweep.CoordObserver{}

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := faultnet.Default()
	faults.DelayMax = 5 * time.Millisecond
	flis := faultnet.Listen(inner, 1889, faults)
	flis.OnEvent = func(ev faultnet.Event) {
		events.Emit(obs.Event{Event: "fault_injected", Op: ev.Op, Conn: ev.Conn, N: ev.Seq})
	}

	status := func() any { return observer.Snapshot() }
	srv, err := obs.StartOps("127.0.0.1:0", obs.NewOpsHandler(obs.Default(), status, false))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	outcome := make(chan struct {
		tables [][]Table
		err    error
	}, 1)
	go func() {
		tables, err := CoordinateSweep(context.Background(), []Experiment{exp}, cfg, flis,
			sweep.CoordOptions{ChunkSize: 3, LeaseTTL: 2 * time.Second, Linger: time.Second,
				Observer: observer, Events: events})
		outcome <- struct {
			tables [][]Table
			err    error
		}{tables, err}
	}()

	// Hammer the ops plane for the whole sweep: every scrape must
	// return 200 with a well-formed body, no matter what the sweep is
	// doing underneath.
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	base := "http://" + srv.Addr()
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-scrapeStop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/status", "/healthz"} {
				resp, err := http.Get(base + path)
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape %s: status %d", path, resp.StatusCode)
					return
				}
				if len(body) == 0 {
					t.Errorf("scrape %s: empty body", path)
					return
				}
			}
		}
	}()

	wopts := sweep.WorkerOptions{
		DialRetries:   60,
		ReconnectBase: 5 * time.Millisecond,
		ReconnectMax:  100 * time.Millisecond,
		IOTimeout:     time.Second,
		Events:        events,
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := wopts
			opts.Name = fmt.Sprintf("obs-chaos-%d", w)
			if _, err := SweepWorker(context.Background(), []Experiment{exp}, cfg, flis.Addr().String(),
				engine.Options{Workers: 2}, nil, opts); err != nil {
				t.Logf("worker %d exited: %v", w, err)
			}
		}(w)
	}
	out := <-outcome
	wg.Wait()
	close(scrapeStop)
	<-scrapeDone
	if out.err != nil {
		t.Fatalf("observed chaos sweep failed: %v (injected %d faults)", out.err, flis.Injected())
	}

	// The determinism boundary: fully observed output is byte-identical
	// to the bare single-process run.
	checkSmokeDigest(t, exp, cfg, out.tables[0], "observed chaos sweep")
	if flis.Injected() == 0 {
		t.Error("fault profile injected nothing; the chaos run degenerated to the clean path")
	}

	// Final /metrics scrape carries the series the ISSUE promises:
	// lease lifecycle, per-worker results, and trial latency.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"scalefree_coord_leases_granted_total",
		"scalefree_coord_leases_completed_total",
		"scalefree_coord_results_total",
		"scalefree_coord_workers_connected",
		"scalefree_trials_completed_total",
		"scalefree_trial_seconds_bucket",
	} {
		if !bytes.Contains(exposition, []byte(series)) {
			t.Errorf("/metrics exposition is missing %s", series)
		}
	}

	// Final /status agrees with the observer: finished, fully done.
	resp, err = http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	statusBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap sweep.CoordSnapshot
	if err := json.Unmarshal(statusBody, &snap); err != nil {
		t.Fatalf("/status is not a CoordSnapshot: %v\n%s", err, statusBody)
	}
	if !snap.Finished || snap.DoneTrials != snap.TotalTrials || snap.DoneTrials == 0 {
		t.Errorf("final /status = %+v, want finished with all trials done", snap)
	}

	// The event log replays the sweep: monotonic sequence, the
	// lifecycle endpoints present, and at least one bridged fault (the
	// Injected assertion above guarantees faults fired).
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var lastSeq uint64
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %d: %v\n%s", i+1, err, line)
		}
		if ev.Seq != lastSeq+1 {
			t.Fatalf("event line %d: seq %d after %d, want monotonic from 1", i+1, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		counts[ev.Event]++
	}
	for _, want := range []string{"worker_join", "lease_grant", "lease_complete", "fault_injected", "sweep_done"} {
		if counts[want] == 0 {
			t.Errorf("event log recorded no %q events (got %v)", want, counts)
		}
	}
}
