package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalefree/internal/obs/trace"
)

// mkTrace assembles a trace file from events, in the envelope
// `experiments -trace` writes.
func mkTrace(t *testing.T, evs []event) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{evs})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func b(name, cat string, ts int64, pid, tid int) event {
	return event{Name: name, Cat: cat, Ph: "B", TS: ts, PID: pid, TID: tid}
}
func e(ts int64, pid, tid int) event { return event{Ph: "E", TS: ts, PID: pid, TID: tid} }

// fixture: a 100ms sweep with two worker lanes. Lane (1,1) runs trials
// back to back with phases; lane (1,2) runs one trial then idles.
//
//	control (0,0): sweep [0, 100000]
//	lane (1,1): trial A [0, 40000] {generate [0,10000], search [10000,40000]},
//	            trial B [50000, 100000]
//	lane (1,2): trial C [0, 30000]
func fixture() []event {
	return []event{
		{Name: "process_name", Ph: "M", PID: 0, Args: map[string]string{"name": "coordinator"}},
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]string{"name": "w1"}},
		b("sweep", "sweep", 0, 0, 0),
		b("trial A", "trial", 0, 1, 1),
		b("generate", "phase", 0, 1, 1),
		e(10000, 1, 1),
		b("search", "phase", 10000, 1, 1),
		e(40000, 1, 1),
		e(40000, 1, 1),
		b("trial C", "trial", 0, 1, 2),
		e(30000, 1, 2),
		b("trial B", "trial", 50000, 1, 1),
		e(100000, 1, 1),
		e(100000, 0, 0),
		{Name: "lease", Ph: "s", TS: 0, PID: 0, TID: 1, ID: "0xabc", Cat: "flow"},
		{Name: "lease", Ph: "f", TS: 1, PID: 1, TID: 0, ID: "0xabc", Cat: "flow"},
		{Name: "retry", Ph: "s", TS: 2, PID: 0, TID: 0, ID: "0xdef", Cat: "flow"},
		{Name: "lease_steal", Ph: "i", TS: 3, PID: 0, TID: 1, Cat: "lease"},
	}
}

// TestCriticalPathPartition pins the core invariant: the critical-path
// segments partition the sweep window exactly, so work + idle equals
// the wall clock, and the walk picks the last finisher at each step.
func TestCriticalPathPartition(t *testing.T) {
	a, err := analyze(mkTrace(t, fixture()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.report(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.WallClockUS != 100000 {
		t.Fatalf("wall clock = %dµs, want 100000", r.WallClockUS)
	}
	if r.PathWorkUS+r.PathIdleUS != r.WallClockUS {
		t.Errorf("work %d + idle %d != wall clock %d", r.PathWorkUS, r.PathIdleUS, r.WallClockUS)
	}
	// Contiguity: each segment starts where the previous ended, from
	// the root's start to its end.
	var cur int64
	for i, s := range r.CriticalPath {
		if s.Start != cur {
			t.Errorf("segment %d starts at %d, want %d", i, s.Start, cur)
		}
		cur = s.End
	}
	if cur != 100000 {
		t.Errorf("path ends at %d, want 100000", cur)
	}
	// The walk: trial B [50000,100000] is the last finisher; before it,
	// the last finisher at 50000 is trial A's search phase ending 40000
	// (leaving a 10ms idle gap); then search [10000,40000]; then
	// generate [0,10000]. Trial C never dominates.
	var names []string
	for _, s := range r.CriticalPath {
		names = append(names, s.Name)
	}
	want := []string{"generate", "search", "(idle)", "trial B"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("critical path = %v, want %v", names, want)
	}
	if r.PathIdleUS != 10000 {
		t.Errorf("idle = %dµs, want 10000", r.PathIdleUS)
	}
}

// TestUtilization pins the per-lane busy fraction (interval union,
// clipped to the sweep window) and the idle-gap histogram.
func TestUtilization(t *testing.T) {
	a, err := analyze(mkTrace(t, fixture()))
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := a.utilization()
	if err != nil {
		t.Fatal(err)
	}
	byLane := map[laneKey]laneStats{}
	for _, l := range lanes {
		byLane[laneKey{l.PID, l.TID}] = l
	}
	// Lane (1,1): [0,40000] + [50000,100000] = 90% busy, one gap of
	// exactly 10ms — bucket bounds are inclusive, so it lands in 1-10ms.
	l := byLane[laneKey{1, 1}]
	if l.BusyUS != 90000 || l.Utilization != 90.0 {
		t.Errorf("lane (1,1): busy %dµs at %.1f%%, want 90000 at 90.0", l.BusyUS, l.Utilization)
	}
	if l.Gaps["1-10ms"] != 1 || len(l.Gaps) != 1 {
		t.Errorf("lane (1,1) gaps = %v, want one 1-10ms gap", l.Gaps)
	}
	// Lane (1,2): [0,30000] = 30% busy, no gaps.
	l = byLane[laneKey{1, 2}]
	if l.BusyUS != 30000 || len(l.Gaps) != 0 {
		t.Errorf("lane (1,2): busy %dµs gaps %v, want 30000 and none", l.BusyUS, l.Gaps)
	}
	// Control lane: the sweep span itself, 100%.
	if l = byLane[laneKey{0, 0}]; l.Utilization != 100.0 {
		t.Errorf("control lane %.1f%% busy, want 100.0", l.Utilization)
	}
}

// TestSlowestTrials pins ordering and the phase breakdown.
func TestSlowestTrials(t *testing.T) {
	a, err := analyze(mkTrace(t, fixture()))
	if err != nil {
		t.Fatal(err)
	}
	got := a.slowestTrials(2)
	if len(got) != 2 || got[0].Name != "trial B" || got[1].Name != "trial A" {
		t.Fatalf("slowest = %+v, want trial B then trial A", got)
	}
	ph := got[1].Phases
	if ph["generate"] != 10000 || ph["search"] != 30000 {
		t.Errorf("trial A phases = %v, want generate 10000, search 30000", ph)
	}
	if _, ok := ph["other"]; ok {
		t.Errorf("trial A has no uncovered time, got other=%d", ph["other"])
	}
}

// TestFlowsAndInstants pins the lineage summary.
func TestFlowsAndInstants(t *testing.T) {
	a, err := analyze(mkTrace(t, fixture()))
	if err != nil {
		t.Fatal(err)
	}
	f := a.flows()
	if f["lease"].Starts != 1 || f["lease"].Ends != 1 || f["lease"].Matched != 1 {
		t.Errorf("lease flow = %+v, want 1/1/1", f["lease"])
	}
	// A start the finish never reached is legal (worker tail loss).
	if f["retry"].Starts != 1 || f["retry"].Ends != 0 {
		t.Errorf("retry flow = %+v, want 1 start, 0 ends", f["retry"])
	}
	if a.instants["lease_steal"] != 1 {
		t.Errorf("instants = %v, want one lease_steal", a.instants)
	}
}

// TestRejectsBrokenTraces pins every structural gate and the lossy-trace
// gate, whether analyze or report raises it.
func TestRejectsBrokenTraces(t *testing.T) {
	cases := []struct {
		name string
		evs  []event
		want string
	}{
		{"empty", []event{}, "empty trace"},
		{"metadata only", []event{{Name: "process_name", Ph: "M", PID: 0}}, "empty trace"},
		{"dangling begin", []event{b("x", "trial", 0, 0, 0)}, "never ended"},
		{"end without begin", []event{e(5, 0, 0)}, "no open span"},
		{"orphan flow finish", []event{
			b("x", "trial", 0, 0, 0), e(5, 0, 0),
			{Name: "lease", Ph: "f", TS: 1, PID: 1, TID: 0, ID: "0x99", Cat: "flow"},
		}, "no matching start"},
		{"not json", nil, "parsing trace"},
		{"dropped records", append(fixture(), event{Name: "trace_dropped", Cat: "trace", Ph: "i",
			Args: map[string]string{"detail": "7 records lost in worker span batches that did not decode"}}),
			"trace_dropped (7 records lost in worker span batches that did not decode)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := mkTrace(t, tc.evs)
			if tc.evs == nil {
				data = []byte("not a trace")
			}
			a, err := analyze(data)
			if err == nil {
				_, err = a.report(10)
			}
			if err == nil {
				t.Fatal("analyze and report accepted a broken trace")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRejectsLossyRecording merges a worker's span batch that does not
// decode into a real recorder, beside a whole local recording, and
// checks that the CLI refuses the exported trace.
func TestRejectsLossyRecording(t *testing.T) {
	rec := trace.New()
	w := rec.Writer()
	for i := 0; i < 20; i++ {
		w.Begin("trial", "trial")
		w.Begin("search", "phase")
		w.End()
		w.End()
	}
	rec.Release(w)
	rec.Merge("worker", 4, []byte{1, 'B'})
	if rec.Dropped() != 4 {
		t.Fatalf("the recorder counted %d dropped records, want the batch's 4", rec.Dropped())
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = run([]string{path})
	if err == nil || !strings.Contains(err.Error(), "4 records lost in worker span batches") {
		t.Errorf("sweeptrace on a lossy trace: err = %v, want a trace_dropped rejection", err)
	}
}

// TestEmptyCriticalPathRejected: a trace whose spans all have zero
// duration yields no work segments — the gate CI relies on.
func TestEmptyCriticalPathRejected(t *testing.T) {
	a, err := analyze(mkTrace(t, []event{
		b("sweep", "sweep", 0, 0, 0),
		b("x", "trial", 3, 0, 0), e(3, 0, 0),
		e(10, 0, 0),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.report(10); err == nil || !strings.Contains(err.Error(), "critical path is empty") {
		t.Errorf("report err = %v, want empty-critical-path rejection", err)
	}
}

// TestSyntheticRoot: a trace without a root sweep span gets one
// covering every span, so hand-built fixtures still analyze.
func TestSyntheticRoot(t *testing.T) {
	a, err := analyze(mkTrace(t, []event{
		b("trial A", "trial", 100, 1, 1), e(400, 1, 1),
		b("trial B", "trial", 300, 2, 1), e(900, 2, 1),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if a.root.Start != 100 || a.root.End != 900 {
		t.Fatalf("synthetic root [%d,%d], want [100,900]", a.root.Start, a.root.End)
	}
	r, err := a.report(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.PathWorkUS+r.PathIdleUS != 800 {
		t.Errorf("path total = %d, want 800", r.PathWorkUS+r.PathIdleUS)
	}
}

// TestParseOptions pins the CLI contract.
func TestParseOptions(t *testing.T) {
	if _, err := parseOptions([]string{}); err == nil {
		t.Error("no trace file argument accepted")
	}
	if _, err := parseOptions([]string{"a.json", "b.json"}); err == nil {
		t.Error("two trace file arguments accepted")
	}
	if _, err := parseOptions([]string{"-top", "0", "t.json"}); err == nil {
		t.Error("-top 0 accepted")
	}
	o, err := parseOptions([]string{"-top", "3", "-json", "t.json"})
	if err != nil {
		t.Fatal(err)
	}
	if o.topK != 3 || !o.jsonOut || o.tracePath != "t.json" {
		t.Errorf("parsed options = %+v", o)
	}
}

// TestTextReport smoke-checks the renderer on the fixture.
func TestTextReport(t *testing.T) {
	a, err := analyze(mkTrace(t, fixture()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.report(10)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := renderText(&sb, a, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"critical path:", "lane utilization", "slowest trials:", "trial B", "lease_steal", "coordinator"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
