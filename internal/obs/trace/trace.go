// Package trace is the sweep's causal timeline: a zero-dependency span
// model recorded into per-goroutine buffers and exported as Chrome
// trace-event JSON that loads directly in Perfetto or chrome://tracing.
//
// The span taxonomy mirrors the execution architecture: one root sweep
// span, a span per experiment, a span per chunk lease (coordinator and
// worker side, linked by a wire-propagated context id), a span per
// trial, and generate/freeze/search/reduce phase spans inside it.
// Steals, retries and reconnects appear as instant events;
// steal/retry lineage is carried by flow events ('s' at the cause, 'f'
// at the re-grant) so Perfetto draws an arrow from the lost lease to
// the chunk's next home.
//
// Determinism boundary: tracing observes the sweep, it never feeds it.
// Span and flow ids are derived by FNV-1a from the sweep's
// deterministic fingerprint plus chunk/trial indices — no math/rand,
// no hashing of wall-clock — so ids are stable across runs and across
// processes without coordination. Timestamps flow only into the trace
// file, never into a result; the single sanctioned clock read lives in
// clockNow below.
//
// Hot-path discipline: a Writer is single-goroutine (the engine hands
// one to each worker goroutine) and records into a preallocated slice
// with a drop-newest overflow policy that still guarantees matched
// B/E pairs: Begin reserves space for its own End plus the Ends of
// every span already open, so an End never fails for lack of room.
// When a Begin is dropped, every nested Begin is dropped with it
// (suppress counting), so the recorded stream always nests correctly.
// Steady-state Begin/End on a warm Writer performs zero allocations
// (pinned by TestWriterZeroAlloc).
package trace

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one trace event. TS is absolute nanoseconds (the trace
// clock); export normalizes to microseconds from the earliest record.
// B/E pairs carry no id — Chrome matches them by per-(pid,tid) stack
// order, which the Writer discipline guarantees. ID is used by flow
// events ('s'/'f') only.
type Record struct {
	TS   int64  // nanoseconds on the trace clock
	ID   uint64 // flow id for 's'/'f'; 0 otherwise
	TID  int32  // lane within the emitting process
	Ph   byte   // 'B', 'E', 'i', 's', or 'f'
	Name string
	Cat  string
	Arg  string // optional detail, exported as args:{"detail":...}
}

// clockNow is the package's one sanctioned clock read. The trace clock
// is the wall clock at startup plus monotonic time since (stamp), so it
// never runs backwards and a span stamped from a clock pair lasts
// exactly the pair's difference. Timestamps feed only the trace file.
//
//sf:wallclock — trace timestamps are observability output only.
func clockNow() time.Time { return time.Now() }

var epoch = clockNow()

func stamp(t time.Time) int64 { return epoch.UnixNano() + int64(t.Sub(epoch)) }

// Writer records spans for one goroutine. It is not safe for
// concurrent use; acquire one per goroutine from Recorder.Writer and
// hand it back with Recorder.Release. A nil *Writer is a valid no-op
// recorder, so call sites need no tracing-enabled branches.
type Writer struct {
	recs     []Record
	tid      int32
	reserved int   // open recorded spans: each holds one End slot
	suppress int   // nesting depth of dropped Begins
	dropped  int64 // records lost to overflow
}

// Begin opens a span now.
//
//sf:hotpath — runs inside the trial loop.
func (w *Writer) Begin(name, cat string) {
	if w != nil {
		w.BeginAt(clockNow(), name, cat)
	}
}

// BeginAt opens a span at t. The overflow policy is drop-newest with
// guaranteed pairing: recording requires room for this Begin, its own
// End, and the reserved Ends of every open span; otherwise the span
// and everything nested in it are suppressed and counted as dropped.
//
//sf:hotpath — runs inside the trial loop.
func (w *Writer) BeginAt(t time.Time, name, cat string) {
	if w == nil {
		return
	}
	if w.suppress > 0 || cap(w.recs)-len(w.recs) < w.reserved+2 {
		w.suppress++
		w.dropped++
		return
	}
	w.recs = append(w.recs, Record{TS: stamp(t), TID: w.tid, Ph: 'B', Name: name, Cat: cat})
	w.reserved++
}

// End closes the innermost open span now.
//
//sf:hotpath — runs inside the trial loop.
func (w *Writer) End() {
	if w != nil {
		w.EndAt(clockNow())
	}
}

// EndAt closes the innermost open span at t. Ends of suppressed Begins
// are absorbed by the suppress count; Ends of recorded Begins always
// have a reserved slot, so a recorded B is never left unmatched.
//
//sf:hotpath — runs inside the trial loop.
func (w *Writer) EndAt(t time.Time) {
	if w == nil {
		return
	}
	if w.suppress > 0 {
		w.suppress--
		return
	}
	if w.reserved == 0 {
		return // unmatched End: ignore rather than corrupt the stream
	}
	w.reserved--
	w.recs = append(w.recs, Record{TS: stamp(t), TID: w.tid, Ph: 'E'})
}

// EndAllAt closes every open span at t, innermost first, and absorbs
// the Ends of suppressed Begins, so no span is left open: what the
// engine does at a trial's end, however the trial unwound.
//
//sf:hotpath — runs once per trial.
func (w *Writer) EndAllAt(t time.Time) {
	if w == nil {
		return
	}
	w.suppress = 0
	for w.reserved > 0 {
		w.EndAt(t)
	}
}

// defaultWriterCap bounds one writer's buffer: 8192 records ≈ 0.6 MiB.
// A writer never grows: the engine flushes it between trials, and a
// trial that overflows it falls into the drop-newest policy.
const defaultWriterCap = 8192

// Recorder owns the process's trace state: it hands out per-goroutine
// Writers, collects their records on flush and release, accepts cold-path
// records via Emit, merges worker batches received over the wire into
// per-worker process lanes, and exports the whole timeline as Chrome
// trace-event JSON. All methods are safe on a nil receiver, and the
// internal mutex is a leaf lock: Emit and the pending-flow helpers are
// callable under any sweep lock.
type Recorder struct {
	// ProcName labels process lane 0 in the export ("sweep",
	// "coordinator", ...). Set before WriteJSON.
	ProcName string
	// WriterCap overrides the per-writer buffer capacity (records).
	// Zero means defaultWriterCap. Set before the first Writer call.
	WriterCap int

	enabled atomic.Bool

	mu       sync.Mutex
	spill    []Record // released writer records + Emit cold path
	free     []*Writer
	nextTID  int32
	workers  []string   // merge order defines worker pids (lane i → pid i+1)
	merged   [][]Record // wire batches per worker
	pending  map[string]uint64
	attempts map[string]int
	dropped  int64
}

// New returns an enabled Recorder. Worker processes keep theirs
// disabled (SetEnabled(false)) until a traced lease arrives over the
// wire, so an untraced sweep records nothing.
func New() *Recorder {
	r := &Recorder{ProcName: "sweep"}
	r.enabled.Store(true)
	return r
}

// SetEnabled flips recording. While disabled, Writer returns nil and
// Emit drops, so every record call degrades to a no-op.
func (r *Recorder) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled.Store(on)
}

// Enabled reports whether the recorder is accepting records.
func (r *Recorder) Enabled() bool {
	return r != nil && r.enabled.Load()
}

// Writer returns a single-goroutine span writer, recycling released
// buffers so lane ids stay bounded by the peak writer concurrency.
// Returns nil (a valid no-op writer) when the recorder is disabled.
func (r *Recorder) Writer() *Writer {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		w := r.free[n-1]
		r.free = r.free[:n-1]
		return w
	}
	capacity := r.WriterCap
	if capacity <= 0 {
		capacity = defaultWriterCap
	}
	r.nextTID++
	return &Writer{recs: make([]Record, 0, capacity), tid: r.nextTID}
}

// Release drains a writer's records into the recorder and recycles the
// buffer. Dangling open spans are closed first so the stream keeps its
// matched-pair guarantee even if the owner unwound early.
func (r *Recorder) Release(w *Writer) {
	if r == nil || w == nil {
		return
	}
	w.EndAllAt(clockNow())
	r.mu.Lock()
	r.collect(w)
	r.free = append(r.free, w)
	r.mu.Unlock()
}

// Flush drains a writer that is at least half full into the recorder,
// as Release does, but leaves the writer with its owner. The engine
// calls it at every trial boundary, where no span is open, so a sweep
// of any length loses nothing as long as one trial fits in half a
// writer; otherwise it costs one comparison.
func (r *Recorder) Flush(w *Writer) {
	if r == nil || w == nil || w.reserved+w.suppress > 0 || 2*len(w.recs) < cap(w.recs) {
		return
	}
	r.mu.Lock()
	r.collect(w)
	r.mu.Unlock()
}

// collect moves a writer's records and loss count into the recorder.
// Called with mu held.
func (r *Recorder) collect(w *Writer) {
	r.spill = append(r.spill, w.recs...)
	r.dropped += w.dropped
	w.recs = w.recs[:0]
	w.dropped = 0
}

// Emit appends one cold-path record (coordinator lease spans, flow
// events, lifecycle instants). A zero TS is stamped on entry. The
// recorder mutex is a leaf lock, so Emit is safe under sweep locks.
func (r *Recorder) Emit(rec Record) {
	if !r.Enabled() {
		return
	}
	if rec.TS == 0 {
		rec.TS = stamp(clockNow())
	}
	r.mu.Lock()
	r.spill = append(r.spill, rec)
	r.mu.Unlock()
}

// Drain removes and returns every locally recorded record (flushed and
// released writers plus Emit).
func (r *Recorder) Drain() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := r.spill
	r.spill = nil
	r.mu.Unlock()
	return out
}

// DrainBatch drains the recorder into one wire batch of at most max
// bytes, which a worker ships on the COMPLETE line of each traced
// lease. The records lost on the way, to writer overflow since the
// last drain or cut by EncodeBatch to fit max, are counted in one
// trailing trace_dropped record; Merge adds that count to the
// receiving recorder's Dropped. Returns nil when there is nothing to
// ship.
func (r *Recorder) DrainBatch(max int) []byte {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	recs, lost := r.spill, r.dropped
	r.spill, r.dropped = nil, 0
	r.mu.Unlock()
	buf, cut := EncodeBatch(recs, max-lossRoom)
	if lost += int64(cut); lost > 0 {
		if buf == nil {
			buf = []byte{codecVersion}
		}
		buf = appendRecord(buf, Record{TS: stamp(clockNow()), Ph: 'i', Name: lossName, Cat: lossCat,
			Arg: strconv.FormatInt(lost, 10)})
	}
	return buf
}

// Merge files a worker's wire batch under that worker's process lane.
// The first batch from a name allocates the lane; order of first
// arrival defines worker pids. A batch's trace_dropped record (see
// DrainBatch) is not filed: its count joins Dropped, which the export
// reports in its one trace_dropped instant.
func (r *Recorder) Merge(worker string, recs []Record) {
	if r == nil || len(recs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lane := slices.Index(r.workers, worker)
	if lane < 0 {
		lane = len(r.workers)
		r.workers = append(r.workers, worker)
		r.merged = append(r.merged, nil)
	}
	for _, rec := range recs {
		if n, ok := lossCount(rec); ok {
			r.dropped += n
			continue
		}
		r.merged[lane] = append(r.merged[lane], rec)
	}
}

// lossCount reads the count of a well-formed trace_dropped record.
func lossCount(rec Record) (int64, bool) {
	if rec.Ph != 'i' || rec.Name != lossName || rec.Cat != lossCat {
		return 0, false
	}
	n, err := strconv.ParseInt(rec.Arg, 10, 64)
	return n, err == nil && n > 0
}

// Dropped returns the number of records lost so far: to the overflow
// of flushed and released writers, and in merged worker batches.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// NextFlow derives the retry-flow id for the key's next attempt (a
// per-key counter folded into base by FNV-1a, so repeated steals of
// one chunk get distinct flow ids) and registers it as pending until
// the chunk's re-grant consumes it with TakePending. Returns false
// when the recorder is disabled.
func (r *Recorder) NextFlow(key string, base uint64) (uint64, bool) {
	if !r.Enabled() {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempts == nil {
		r.attempts = make(map[string]int)
	}
	r.attempts[key]++
	id := fnvInt(base, uint64(r.attempts[key]))
	if r.pending == nil {
		r.pending = make(map[string]uint64)
	}
	r.pending[key] = id
	return id, true
}

// TakePending retrieves and clears the pending flow id for a key.
func (r *Recorder) TakePending(key string) (uint64, bool) {
	if !r.Enabled() {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.pending[key]
	if ok {
		delete(r.pending, key)
	}
	return id, ok
}

// AbandonPending terminates every still-pending flow with an 'f'
// event named "retry_abandoned", so a steal whose chunk completed
// through the original lease (and was never re-granted) still has a
// matched flow pair in the export. Call once at sweep completion.
func (r *Recorder) AbandonPending() {
	if !r.Enabled() {
		return
	}
	now := stamp(clockNow())
	r.mu.Lock()
	for key, id := range r.pending {
		r.spill = append(r.spill, Record{TS: now, ID: id, Ph: 'f', Name: "retry_abandoned", Cat: "flow", Arg: key})
		delete(r.pending, key)
	}
	r.mu.Unlock()
}

// FNV-1a 64-bit. Ids must be deterministic and coordination-free, so
// they hash the sweep's content fingerprint plus indices; two distinct
// chunks of one sweep get distinct ids with overwhelming probability,
// and the same chunk gets the same id in every process.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvInt(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// LeaseContext derives the wire-propagated trace context id for a
// chunk: the flow id linking the coordinator's grant to the worker's
// lease span.
func LeaseContext(expID, fingerprint string, lo, hi int) uint64 {
	h := fnvString(fnvString(uint64(fnvOffset), expID), fingerprint)
	h = fnvInt(h, uint64(lo))
	h = fnvInt(h, uint64(hi))
	return h
}

// Attacher is implemented by scratch types that can carry a trace
// writer into the trial function (core.Scratch). The engine attaches
// the per-worker writer through this seam so the engine stays generic.
type Attacher interface {
	AttachTrace(w *Writer)
}
