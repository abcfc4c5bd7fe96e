package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/faultnet"
	"scalefree/internal/obs/trace"
	"scalefree/internal/sweep"
)

// traceEvent mirrors the exported Chrome trace-event fields the
// structural checks below care about.
type traceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Ph    string            `json:"ph"`
	TS    int64             `json:"ts"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	ID    string            `json:"id"`
	Scope string            `json:"s"`
	BP    string            `json:"bp"`
	Args  map[string]string `json:"args"`
}

// TestGoldenTracedChaosSweep is the determinism-boundary guarantee for
// the tracing layer: a coordinated chaos sweep with full tracing on —
// coordinator recorder, wire-propagated contexts, worker span batches
// riding COMPLETE lines — still renders tables matching the untraced
// single-process run's recorded digest, and the merged timeline it
// exports is structurally sound Chrome trace JSON: every B has its E in
// stack order per (pid,tid) lane, and every flow 'f' terminates a flow
// 's'.
func TestGoldenTracedChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	// E4 (pure probability trials) plus E12 (graph generate/freeze/
	// search trials through the scratch path), so the timeline carries
	// both plain trial spans and the phase spans inside them.
	var selected []Experiment
	for _, id := range []string{"E4", "E12"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		selected = append(selected, exp)
	}
	cfg := smokeConfig

	rec := trace.New()
	rec.ProcName = "coordinator"

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := faultnet.Default()
	faults.DelayMax = 5 * time.Millisecond
	flis := faultnet.Listen(inner, 1889, faults)

	outcome := make(chan struct {
		tables [][]Table
		err    error
	}, 1)
	go func() {
		tables, err := CoordinateSweep(context.Background(), selected, cfg, flis,
			sweep.CoordOptions{ChunkSize: 3, LeaseTTL: 2 * time.Second, Linger: time.Second,
				Trace: rec})
		outcome <- struct {
			tables [][]Table
			err    error
		}{tables, err}
	}()

	// Workers wire one recorder into both the engine (trial and phase
	// spans) and the sweep client (lease spans, COMPLETE batches),
	// created disabled exactly as cmd/experiments does: the traced
	// LEASE line is what turns recording on.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrec := trace.New()
			wrec.SetEnabled(false)
			wopts := sweep.WorkerOptions{
				Name:          fmt.Sprintf("trace-chaos-%d", w),
				DialRetries:   60,
				ReconnectBase: 5 * time.Millisecond,
				ReconnectMax:  100 * time.Millisecond,
				IOTimeout:     time.Second,
				Trace:         wrec,
			}
			if _, err := SweepWorker(context.Background(), selected, cfg, flis.Addr().String(),
				engine.Options{Workers: 2, Trace: wrec}, nil, wopts); err != nil {
				t.Logf("worker %d exited: %v", w, err)
			}
		}(w)
	}
	out := <-outcome
	wg.Wait()
	if out.err != nil {
		t.Fatalf("traced chaos sweep failed: %v (injected %d faults)", out.err, flis.Injected())
	}

	// The determinism boundary: fully traced output is byte-identical
	// to the bare single-process run.
	for i, exp := range selected {
		checkSmokeDigest(t, exp, cfg, out.tables[i], "traced chaos sweep")
	}
	if flis.Injected() == 0 {
		t.Error("fault profile injected nothing; the chaos run degenerated to the clean path")
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &envelope); err != nil {
		t.Fatalf("trace export is not well-formed JSON: %v", err)
	}
	events := envelope.TraceEvents
	if len(events) == 0 {
		t.Fatal("trace export is empty")
	}

	// Matched B/E pairs: within each (pid,tid) lane, events appear in
	// emission order, so a simple depth counter must never go negative
	// and must end at zero.
	type laneKey struct{ pid, tid int }
	depth := map[laneKey]int{}
	sIDs := map[string]int{}
	fIDs := map[string]int{}
	procs := map[int]string{}
	cats := map[string]int{}
	for i, ev := range events {
		if ev.Ph == "M" {
			if ev.Name == "process_name" {
				procs[ev.PID] = ev.Args["name"]
			}
			continue
		}
		cats[ev.Cat]++
		switch ev.Ph {
		case "B":
			depth[laneKey{ev.PID, ev.TID}]++
		case "E":
			k := laneKey{ev.PID, ev.TID}
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("event %d: unmatched E on pid=%d tid=%d", i, ev.PID, ev.TID)
			}
		case "s":
			if ev.ID == "" {
				t.Errorf("event %d: flow 's' without id", i)
			}
			sIDs[ev.ID]++
		case "f":
			if ev.ID == "" {
				t.Errorf("event %d: flow 'f' without id", i)
			}
			if ev.BP != "e" {
				t.Errorf("event %d: flow 'f' without bp=e", i)
			}
			fIDs[ev.ID]++
		case "i":
			if ev.Scope != "t" {
				t.Errorf("event %d: instant without thread scope", i)
			}
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Errorf("lane pid=%d tid=%d ends at depth %d, want 0 (unmatched B)", k.pid, k.tid, d)
		}
	}

	// Every flow 'f' terminates a flow 's' someone emitted; the reverse
	// need not hold (a worker's terminating 'f' for the final lease can
	// be lost with the connection), but at least one grant arrow must
	// have landed for the merged timeline to mean anything.
	matched := 0
	for id := range fIDs {
		if sIDs[id] == 0 {
			t.Errorf("flow 'f' id %s has no originating 's'", id)
		} else {
			matched++
		}
	}
	if matched == 0 {
		t.Error("no matched s→f flow pair; wire propagation recorded nothing")
	}

	// The merged timeline spans the fleet: the coordinator lane plus at
	// least one worker process, with lease spans on the coordinator and
	// trial spans shipped back from workers.
	if procs[0] != "coordinator" {
		t.Errorf("process 0 is %q, want coordinator", procs[0])
	}
	if len(procs) < 2 {
		t.Errorf("export names %d processes, want coordinator plus at least one worker", len(procs))
	}
	for _, cat := range []string{"lease", "trial", "phase", "reduce"} {
		if cats[cat] == 0 {
			t.Errorf("export holds no %q-category events (got %v)", cat, cats)
		}
	}
}
