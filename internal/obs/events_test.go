package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEventLogSchema pins the JSONL schema: fixed field order, absent
// fields omitted, seq monotonic from 1, RFC3339Nano UTC timestamps.
func TestEventLogSchema(t *testing.T) {
	var sb strings.Builder
	l := NewEventLog(&sb)
	fixed := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	l.now = func() time.Time { return fixed }

	l.Emit(Event{Event: "worker_join", Worker: "w1", Conn: 3})
	l.Emit(Event{Event: "lease_grant", Worker: "w1", Exp: "E4", Lease: 9, Chunk: ChunkRange(0, 8)})
	l.Emit(Event{Event: "cache_gc", N: 4096, Msg: "2 entries, 0 corrupt, 0 temp files (4096 bytes)"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	want := `{"seq":1,"ts":"2026-08-08T12:00:00.123456789Z","event":"worker_join","worker":"w1","conn":3}
{"seq":2,"ts":"2026-08-08T12:00:00.123456789Z","event":"lease_grant","worker":"w1","exp":"E4","lease":9,"chunk":"[0,8)"}
{"seq":3,"ts":"2026-08-08T12:00:00.123456789Z","event":"cache_gc","n":4096,"msg":"2 entries, 0 corrupt, 0 temp files (4096 bytes)"}
`
	if sb.String() != want {
		t.Errorf("event log:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
}

// TestEventLogRoundTrip: every line re-parses into an equal Event —
// the schema is machine-consumable, not just printable.
func TestEventLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	in := []Event{
		{Event: "worker_join", Worker: "host:1"},
		{Event: "fault_injected", Op: "reset", Conn: 2, N: 17},
		{Event: "sweep_abort", Msg: `worker said "no" \o/`},
	}
	for _, e := range in {
		l.Emit(e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != len(in) {
		t.Fatalf("wrote %d lines, want %d", len(lines), len(in))
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		if got.Seq != uint64(i+1) {
			t.Errorf("line %d seq = %d, want %d", i, got.Seq, i+1)
		}
		if _, err := time.Parse(time.RFC3339Nano, got.TS); err != nil {
			t.Errorf("line %d ts %q: %v", i, got.TS, err)
		}
		want := in[i]
		want.Seq, want.TS = got.Seq, got.TS
		if got != want {
			t.Errorf("line %d round-trip = %+v, want %+v", i, got, want)
		}
	}
}

// TestEventLogAppends: a second run opened on the same path appends
// its events after the first run's, numbering them from seq 1 again,
// so a restarted coordinator keeps the earlier run's record.
func TestEventLogAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	runs := [][]string{{"sweep_start", "worker_join", "sweep_abort"}, {"sweep_start", "sweep_done"}}
	for _, run := range runs {
		l, err := OpenEventLog(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range run {
			l.Emit(Event{Event: name})
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var want []Event
	for _, run := range runs {
		for i, name := range run {
			want = append(want, Event{Seq: uint64(i + 1), Event: name})
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("log holds %d lines, want %d:\n%s", len(lines), len(want), data)
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		if got.Seq != want[i].Seq || got.Event != want[i].Event {
			t.Errorf("line %d = seq %d %q, want seq %d %q", i, got.Seq, got.Event, want[i].Seq, want[i].Event)
		}
	}
}

// TestEventLogStickyError: a failed write latches, later emits no-op,
// Err and Close both report the first failure, and the error never
// resets or gets replaced by a later one.
func TestEventLogStickyError(t *testing.T) {
	l := NewEventLog(failWriter{})
	l.Emit(Event{Event: "x"})
	first := l.Err()
	if first == nil {
		t.Fatal("write error not latched")
	}
	l.Emit(Event{Event: "y"}) // must not panic or reset the error
	if got := l.Err(); got != first {
		t.Errorf("Err() changed after later emit: %v -> %v", first, got)
	}
	if l.Close() == nil {
		t.Error("Close did not report the write error")
	}
	if got := l.Err(); got != first {
		t.Errorf("Close replaced the first error: %v -> %v", first, got)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, os.ErrClosed }
