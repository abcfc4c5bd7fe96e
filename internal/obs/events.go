// Structured sweep event log: one JSON object per line, fixed schema,
// append-only, in one file — the post-mortem artifact a chaos or fleet
// run leaves behind. A run opened on an existing log appends to it, so
// a coordinator restarted on the same path keeps the crashed run's
// record; each run numbers its events from seq 1, and a seq-1 line
// marks where a run begins. Because the schema is a fixed struct
// (field order is the struct order, absent fields are omitted), two
// runs' logs diff cleanly once the wall-clock ts column is stripped:
//
//	diff <(cut -d, -f3- a.jsonl) <(cut -d, -f3- b.jsonl)
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one sweep-lifecycle record. Event (the type tag) is always
// set; the remaining fields are populated per type — the schema table
// in DESIGN.md §9 says which. Seq and TS are stamped by EventLog.Emit.
type Event struct {
	// Seq numbers one run's events 1..N in emission order — the
	// tie-breaker and diff anchor wall-clock timestamps cannot be. A
	// log that several runs appended to restarts at 1 with each run.
	Seq uint64 `json:"seq"`
	// TS is the emission wall-clock time, RFC3339Nano in UTC.
	TS string `json:"ts"`
	// Event is the type tag, e.g. "lease_grant", "worker_join".
	Event string `json:"event"`
	// Worker names the sweep worker involved, when one is.
	Worker string `json:"worker,omitempty"`
	// Exp is the experiment ID a lease or trial event belongs to.
	Exp string `json:"exp,omitempty"`
	// Lease is the lease ID for lease-lifecycle events.
	Lease uint64 `json:"lease,omitempty"`
	// Chunk renders the trial range as "[lo,hi)".
	Chunk string `json:"chunk,omitempty"`
	// Conn is the connection index (coordinator accept order, or a
	// faultnet connection index for fault events).
	Conn uint64 `json:"conn,omitempty"`
	// Op tags fault events with the injected operation ("reset",
	// "truncation", "partition").
	Op string `json:"op,omitempty"`
	// N is the event's count payload: bytes removed by cache GC, leases
	// revoked, the faultnet op sequence number.
	N int64 `json:"n,omitempty"`
	// Msg carries free-text detail (error strings, abort causes).
	Msg string `json:"msg,omitempty"`
}

// ChunkRange renders a trial range for Event.Chunk.
func ChunkRange(lo, hi int) string { return fmt.Sprintf("[%d,%d)", lo, hi) }

// EventLog writes Events as JSON lines through a buffered writer. All
// methods are safe for concurrent use and nil-safe, so instrumented
// code paths pass a possibly-nil *EventLog around freely. Write errors
// are sticky: the first one is kept, later Emits become no-ops, and
// Close reports it — an ops artifact must fail loudly, not truncate
// silently.
type EventLog struct {
	mu    sync.Mutex
	w     *bufio.Writer
	close io.Closer
	seq   uint64
	err   error
	now   func() time.Time // injectable for tests
}

// NewEventLog writes events to w. If w is also an io.Closer, Close
// closes it.
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{w: bufio.NewWriter(w), now: time.Now}
	if c, ok := w.(io.Closer); ok {
		l.close = c
	}
	return l
}

// OpenEventLog opens the JSONL file at path for appending, creating
// it if it does not exist; the events of earlier runs stay in place.
func OpenEventLog(path string) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return nil, fmt.Errorf("obs: opening event log: %w", err)
	}
	return NewEventLog(f), nil
}

// Emit stamps e with the next sequence number and the current time,
// then appends it as one JSON line. Each line is flushed through the
// buffer immediately, so a `tail -f` (or a crashed process's log)
// always ends on a complete line.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	l.seq++
	e.Seq = l.seq
	e.TS = l.now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(e)
	if err != nil {
		l.err = fmt.Errorf("obs: encoding event: %w", err)
		return
	}
	if _, err := l.w.Write(append(data, '\n')); err != nil {
		l.err = fmt.Errorf("obs: writing event log: %w", err)
		return
	}
	if err := l.w.Flush(); err != nil {
		l.err = fmt.Errorf("obs: writing event log: %w", err)
	}
}

// Err reports the sticky write error, if any.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close flushes and closes the underlying writer, reporting the first
// error the log hit.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	if l.close != nil {
		if err := l.close.Close(); err != nil && l.err == nil {
			l.err = err
		}
	}
	return l.err
}
