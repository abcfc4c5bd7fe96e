package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/obs"
	"scalefree/internal/obs/trace"
)

// CoordJob is one experiment's plan as the coordinator schedules it:
// the job identity (experiment ID + plan fingerprint) and the full
// positional trial list. Workers re-plan the same experiment locally
// and the fingerprint guarantees both sides hold identical trials.
type CoordJob struct {
	Job    Job
	Trials []engine.Trial
}

// CoordOptions configures one Coordinate call.
type CoordOptions struct {
	// ChunkSize is the number of trials per lease; <= 0 defaults to 8.
	// Smaller chunks bound the work a dead worker forfeits; larger
	// chunks amortize round trips.
	ChunkSize int
	// LeaseTTL is the heartbeat deadline: a lease not pinged for this
	// long is forfeit and its chunk is stolen by the next worker that
	// asks. <= 0 defaults to 10 seconds.
	LeaseTTL time.Duration
	// Linger bounds how long Coordinate keeps serving DONE responses to
	// connected workers after the sweep finishes, so they exit cleanly
	// instead of seeing a reset. <= 0 defaults to 3 seconds.
	Linger time.Duration
	// OnResult, if non-nil, is called once per newly completed trial
	// with the reporting worker's name and the sweep's completed-trial
	// count, this trial included — the count CoordSnapshot.DoneTrials
	// reports. Duplicate deliveries from stolen chunks do not re-fire
	// it. Called under the coordinator's lock — keep it fast.
	OnResult func(worker, expID string, t engine.Trial, done int)
	// AuthKey, if non-empty, requires every worker to pass the
	// shared-key HMAC challenge–response handshake (auth.go). Keyless
	// or wrong-key workers are rejected at HELLO with a clear error.
	AuthKey string
	// Cache, if non-nil, makes the sweep resumable through the same
	// per-trial entries worker and single-process runs write. Every
	// newly accepted result is stored before its connection's next
	// line is read, so before the lease's COMPLETE is answered; a
	// failed store fails the sweep. At start, trials the cache already
	// holds count as done and are never leased, so a coordinator
	// restarted on the cache of a cancelled or crashed one leases only
	// the missing trials.
	Cache *Cache
	// Log, if non-nil, receives coordinator lifecycle lines (auth
	// rejections, trials resumed from Cache).
	Log func(format string, args ...any)
	// IOTimeout is the per-message wire deadline on worker
	// connections; <= 0 defaults to 2×LeaseTTL. A worker silent past
	// it is torn down like a disconnect (leases revoked) — the bound
	// that keeps a hung peer from pinning a handler goroutine forever.
	IOTimeout time.Duration
	// Events, if non-nil, receives one structured record per sweep
	// lifecycle event (worker join/leave, lease grant/steal/revoke/
	// complete, chunk fail/retry, sweep done/abort). Strictly
	// observational: events never feed scheduling or results.
	Events *obs.EventLog
	// Observer, if non-nil, is attached to this sweep so its Snapshot
	// serves the /status endpoint while Coordinate runs.
	Observer *CoordObserver
	// Trace, if non-nil and enabled, records the sweep's causal
	// timeline: a coordinator-side span per lease (on the connection's
	// lane), steal/revoke/retry instants, flow events linking a lost
	// lease to the chunk's re-grant, and the trace context propagated
	// to workers on LEASE lines (their span batches come back on SPANS
	// lines and are merged under per-worker process lanes). Strictly
	// observational: tracing never feeds scheduling or results.
	Trace *trace.Recorder
}

func (o CoordOptions) withDefaults() CoordOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 8
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Linger <= 0 {
		o.Linger = 3 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 2 * o.LeaseTTL
	}
	return o
}

// Coordinate serves the jobs' trials to workers connecting on lis as
// leased chunks (see wire.go for the protocol) and returns each job's
// positional results, keyed by plan trial index, once every trial has
// a result. Scheduling is pull-based work stealing: workers take the
// next pending chunk when they are free, a chunk whose lease misses
// its heartbeat deadline (dead worker) or whose connection drops is
// reassigned, and a duplicate completion — the original worker was
// slow, not dead — is resolved by content: both encodings of a pure
// trial must be byte-identical, so the first result wins and a
// mismatch aborts the sweep as a determinism violation. Because every
// result lands at its plan index before any reduction, the assembled
// slices are exactly what a single-process run produces.
//
// A worker FAIL (trial execution error) re-leases the failed chunk
// once — preferring a different worker, so one faulty host does not
// kill a fleet-wide sweep — and aborts the sweep on the chunk's
// second failure, mirroring the engine's first-error-cancels
// semantics one retry later; the failing worker keeps serving other
// chunks, so even a lone worker drives its own retry to the abort. A
// worker REFUSE (plan mismatch, codec failure — systematic, never
// chunk-local) aborts immediately.
//
// Cancellation of ctx aborts the sweep at once. With opts.Cache set,
// every result accepted before that is already persisted, so a
// Coordinate restarted on the same cache leases only the missing
// trials; chunks that were in flight run again there, or come from the
// workers' own caches. lis is closed on return.
func Coordinate(ctx context.Context, lis net.Listener, jobs []CoordJob, opts CoordOptions) ([]map[int]any, error) {
	opts = opts.withDefaults()
	st, err := newCoordState(jobs, opts)
	if err != nil {
		lis.Close()
		return nil, err
	}

	var handlers sync.WaitGroup
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed: sweep over or cancelled
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				st.handle(conn)
			}()
		}
	}()

	select {
	case <-ctx.Done():
		st.mu.Lock()
		st.failLocked(ctx.Err())
		st.mu.Unlock()
	case <-st.done:
	}
	lis.Close()

	// Let connected workers poll once more and see DONE; then force
	// any straggler connections closed so handle() goroutines exit.
	drained := make(chan struct{})
	go func() { handlers.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(opts.Linger):
		st.closeConns()
		<-drained
	}

	// Timeline close-out: leases still open at teardown (stragglers
	// whose chunks completed through another lease) get their spans
	// closed, and retry flows whose chunk was never re-granted get
	// their terminating 'f', so the export holds no dangling B or 's'.
	// Handlers have all exited, so nothing else is emitting; the lock
	// is for a /status Snapshot that may still read the lease table.
	st.mu.Lock()
	defer st.mu.Unlock()
	if tr := opts.Trace; tr.Enabled() {
		for _, l := range st.leases.Outstanding() {
			tid := int32(l.ConnID)
			tr.Emit(trace.Record{Ph: 'i', TID: tid, Name: "lease_outstanding", Cat: "lease", Arg: l.Worker})
			tr.Emit(trace.Record{Ph: 'E', TID: tid})
		}
		tr.AbandonPending()
	}
	if st.failure != nil {
		return nil, st.failure
	}
	return st.results, nil
}

func (st *coordState) logf(format string, args ...any) {
	if st.opts.Log != nil {
		st.opts.Log(format, args...)
	}
}

// coordState is the shared state of one Coordinate call. mu is the
// coordinator's only lock: it guards the results, the lease table, the
// connection census and the finish state together. Each wire message
// is applied to them in one critical section, and its reply, and a new
// result's cache write, go out after it; so a /status Snapshot, which
// reads under the same lock, sees every message wholly applied or not
// at all.
type coordState struct {
	mu        sync.Mutex
	jobs      []CoordJob
	byExp     map[string]int   // ExpID -> job index
	results   []map[int]any    // per job: trial index -> decoded value
	encoded   []map[int]string // per job: trial index -> raw payload (dup check)
	byWorker  map[string]int   // worker name (or cacheSource) -> trials it supplied first
	total     int
	remaining int
	failure   error
	finished  bool
	done      chan struct{}
	leases    *leaseTable
	opts      CoordOptions
	connSeq   uint64
	conns     map[uint64]net.Conn
	// helloed maps handshaken connections to their worker names — the
	// live-worker census /status reports and worker_leave events name.
	helloed map[uint64]string
	// chunkFailed records chunks that already burned their one retry
	// (see failChunk).
	chunkFailed map[chunk]bool
}

func newCoordState(jobs []CoordJob, opts CoordOptions) (*coordState, error) {
	st := &coordState{
		jobs:        jobs,
		byExp:       make(map[string]int, len(jobs)),
		results:     make([]map[int]any, len(jobs)),
		encoded:     make([]map[int]string, len(jobs)),
		byWorker:    map[string]int{},
		done:        make(chan struct{}),
		opts:        opts,
		conns:       map[uint64]net.Conn{},
		helloed:     map[uint64]string{},
		chunkFailed: map[chunk]bool{},
	}
	for j, job := range jobs {
		if job.Job.ExpID == "" || job.Job.Fingerprint == "" {
			return nil, fmt.Errorf("sweep: coordinate: job %d has empty identity", j)
		}
		if _, dup := st.byExp[job.Job.ExpID]; dup {
			return nil, fmt.Errorf("sweep: coordinate: duplicate job for %s", job.Job.ExpID)
		}
		for i, t := range job.Trials {
			if t.Index != i {
				return nil, fmt.Errorf("sweep: coordinate: %s trial %d has plan index %d (jobs must carry full plans)",
					job.Job.ExpID, i, t.Index)
			}
		}
		st.byExp[job.Job.ExpID] = j
		st.results[j] = make(map[int]any, len(job.Trials))
		st.encoded[j] = make(map[int]string, len(job.Trials))
		st.total += len(job.Trials)
	}
	st.remaining = st.total
	if err := st.resumeFromCache(); err != nil {
		return nil, err
	}
	st.leases = newLeaseTable(chunked(jobs, opts.ChunkSize, st.results), opts.LeaseTTL)
	// Observe steals and revocations where the table decides them, under
	// st.mu like every table call.
	st.leases.onDrop = func(l lease, how string) {
		switch how {
		case "steal":
			mLeasesStolen.Inc()
		case "revoke":
			mLeasesRevoked.Inc()
		}
		job := st.jobs[l.Chunk.JobIdx].Job
		st.opts.Events.Emit(obs.Event{
			Event:  "lease_" + how,
			Worker: l.Worker,
			Exp:    job.ExpID,
			Lease:  l.ID,
			Chunk:  obs.ChunkRange(l.Chunk.Lo, l.Chunk.Hi),
			Conn:   l.ConnID,
		})
		// Trace the loss: close the lease span on the connection's
		// lane, mark the moment, and open a retry flow that the
		// chunk's re-grant (serveNext) will terminate — the arrow from
		// the lost lease to the chunk's next home.
		if tr := st.opts.Trace; tr.Enabled() {
			tid := int32(l.ConnID)
			tr.Emit(trace.Record{Ph: 'E', TID: tid})
			tr.Emit(trace.Record{Ph: 'i', TID: tid, Name: "lease_" + how, Cat: "lease", Arg: l.Worker})
			base := trace.LeaseContext(job.ExpID, job.Fingerprint, l.Chunk.Lo, l.Chunk.Hi)
			if id, ok := tr.NextFlow(traceChunkKey(job.ExpID, l.Chunk), base); ok {
				tr.Emit(trace.Record{Ph: 's', ID: id, TID: tid, Name: "retry", Cat: "flow"})
			}
		}
	}
	if st.remaining == 0 {
		st.finishLocked()
	}
	if opts.Observer != nil {
		opts.Observer.attach(st)
	}
	return st, nil
}

// cacheSource is the CoordSnapshot.ByWorker source credited with the
// trials a sweep found in its cache at start.
const cacheSource = "(cache)"

// resumeFromCache credits every trial opts.Cache already holds as if a
// worker had delivered it: the value and its encoding land in results
// and encoded, so a later re-delivery is still compared byte for byte.
// Called before the lease table exists, so the caller chunks only what
// is missing.
func (st *coordState) resumeFromCache() error {
	if st.opts.Cache == nil {
		return nil
	}
	for j, job := range st.jobs {
		for _, t := range job.Trials {
			v, ok := lookupTrial(st.opts.Cache, job.Job.ExpID, job.Job.Fingerprint, t)
			if !ok {
				continue
			}
			payload, err := EncodeResult(v)
			if err != nil {
				return fmt.Errorf("sweep: coordinate: cached %s trial %d: %w", job.Job.ExpID, t.Index, err)
			}
			st.results[j][t.Index] = v
			st.encoded[j][t.Index] = string(payload)
			st.byWorker[cacheSource]++
			st.remaining--
		}
	}
	if n := st.byWorker[cacheSource]; n > 0 {
		st.logf("resuming: %d of %d trials already in cache %s", n, st.total, st.opts.Cache.Dir())
	}
	return nil
}

// failLocked records the first failure and releases Coordinate. A
// failure reported after the sweep already finished successfully is
// ignored: every trial holds a content-verified result by then, so a
// straggler's FAIL/REFUSE (e.g. the live holder of a stolen chunk
// erroring during the linger window) cannot invalidate the outcome.
func (st *coordState) failLocked(err error) {
	if !st.finished {
		st.failNowLocked(err)
	}
}

// failNowLocked is failLocked without the finished-success exemption —
// for result integrity errors (a determinism violation, a malformed
// delivery, a failed cache store), which cast doubt on results already
// accepted and must surface even when the last trial has reported.
func (st *coordState) failNowLocked(err error) {
	if st.failure == nil {
		st.failure = err
	}
	st.finishLocked()
}

func (st *coordState) finishLocked() {
	if !st.finished {
		st.finished = true
		close(st.done)
		if st.failure != nil {
			st.opts.Events.Emit(obs.Event{Event: "sweep_abort", Msg: st.failure.Error()})
		} else {
			st.opts.Events.Emit(obs.Event{Event: "sweep_done"})
		}
	}
}

// chunkCoveredLocked reports whether every trial of c has a delivered
// result.
func (st *coordState) chunkCoveredLocked(c chunk) bool {
	m := st.results[c.JobIdx]
	for i := c.Lo; i < c.Hi; i++ {
		if _, ok := m[i]; !ok {
			return false
		}
	}
	return true
}

func (st *coordState) closeConns() {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make([]uint64, 0, len(st.conns))
	for id := range st.conns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		st.conns[id].Close()
	}
}

// handle serves one worker connection until it disconnects or the
// protocol is violated. Any lease the connection still holds when it
// goes away is revoked immediately — a visible disconnect reassigns
// faster than waiting out the TTL. Each message is parsed first, then
// applied to the sweep in one critical section, and answered after it.
func (st *coordState) handle(conn net.Conn) {
	// Per-message deadline: a worker that stops making protocol
	// progress for this long (default two lease TTLs) is
	// indistinguishable from a dead one and its connection is torn
	// down (revoking its leases), so a hung peer never outlives the
	// lease it holds by more than the reclaim already tolerates.
	wc := newWireConn(conn, st.opts.IOTimeout)
	st.mu.Lock()
	st.connSeq++
	connID := st.connSeq
	st.conns[connID] = conn
	st.mu.Unlock()
	defer func() {
		wc.close()
		st.mu.Lock()
		revoked := st.leases.RevokeConn(connID)
		delete(st.conns, connID)
		name, wasHelloed := st.helloed[connID]
		delete(st.helloed, connID)
		st.mu.Unlock()
		if wasHelloed {
			mWorkersConnected.Dec()
			st.opts.Events.Emit(obs.Event{Event: "worker_leave", Worker: name, Conn: connID, N: int64(revoked)})
		}
	}()

	worker := ""
	helloed := false
	for {
		line, err := wc.recv()
		if err != nil {
			return
		}
		verb, fields := splitMsg(line)
		// The handshake (including authentication) must complete before
		// any other verb is served — otherwise a peer could skip
		// straight past a required AUTH exchange.
		if !helloed && verb != "HELLO" {
			wc.send("ERR " + quoteMsg("HELLO required before any other verb"))
			return
		}
		var reply string
		switch verb {
		case "HELLO":
			if helloed {
				// A second HELLO would count the worker as joined twice
				// and let it rename itself mid-session.
				wc.send("ERR " + quoteMsg("HELLO repeated: the session is already open"))
				return
			}
			if len(fields) < 1 || fields[0] != protoVersion {
				wc.send("ERR " + quoteMsg(fmt.Sprintf("protocol version mismatch: want %s", protoVersion)))
				return
			}
			if len(fields) > 1 {
				// The name lands in every event, metric label and
				// failure of this connection.
				worker = clipMsg(fields[1])
			}
			if !st.authenticate(wc, worker, fields) {
				return
			}
			helloed = true
			st.mu.Lock()
			st.helloed[connID] = worker
			st.mu.Unlock()
			mWorkersConnected.Inc()
			st.opts.Events.Emit(obs.Event{Event: "worker_join", Worker: worker, Conn: connID})
			hb := st.opts.LeaseTTL / 3
			if hb < time.Millisecond {
				hb = time.Millisecond
			}
			reply = fmt.Sprintf("OK %d", hb.Milliseconds())
		case "NEXT":
			reply = st.serveNext(worker, connID)
		case "PING":
			id, err := parseID(fields)
			if err != nil {
				wc.send("ERR " + quoteMsg(err.Error()))
				return
			}
			st.mu.Lock()
			alive := st.leases.Heartbeat(id)
			st.mu.Unlock()
			reply = "GONE"
			if alive {
				reply = "OK"
			}
		case "RESULT":
			m, err := parseResult(fields)
			if err == nil {
				err = st.acceptResult(worker, m)
			}
			if err != nil {
				wc.send("ERR " + quoteMsg(err.Error()))
				return
			}
			continue // RESULT lines stream without a reply
		case "SPANS":
			n, batch, err := parseSpans(fields)
			if err != nil {
				wc.send("ERR " + quoteMsg(err.Error()))
				return
			}
			// Merge the batch into the worker's process lane whether or
			// not its lease is still live: results from a stolen lease
			// are accepted, and so is its timeline. A batch that does
			// not decode is counted, not answered: tracing never feeds
			// scheduling.
			st.opts.Trace.Merge(worker, n, batch)
			continue // SPANS lines stream without a reply
		case "COMPLETE":
			id, err := parseID(fields)
			if err != nil {
				wc.send("ERR " + quoteMsg(err.Error()))
				return
			}
			reply = st.completeLease(worker, connID, id)
		case "FAIL":
			id, err := parseID(fields)
			if err != nil {
				wc.send("ERR " + quoteMsg(err.Error()))
				return
			}
			st.failLease(worker, id, unquoteMsg(fields[1:]))
			reply = "OK"
		case "REFUSE":
			id, err := parseID(fields)
			if err != nil {
				wc.send("ERR " + quoteMsg(err.Error()))
				return
			}
			st.refuse(worker, connID, id, unquoteMsg(fields[1:]))
			reply = "OK"
		default:
			wc.send("ERR " + quoteMsg(fmt.Sprintf("unknown verb %q", clip(verb))))
			return
		}
		if err := wc.send(reply); err != nil {
			return
		}
	}
}

// authenticate runs the coordinator's half of the CHAL/AUTH exchange
// when a key is configured (wire.go documents the flow). It reports
// whether the session may proceed; on rejection the ERR has been sent
// and the connection must close. fields are HELLO's: version, name,
// optional client nonce.
func (st *coordState) authenticate(wc *wireConn, worker string, fields []string) bool {
	key := []byte(st.opts.AuthKey)
	if len(key) == 0 {
		if len(fields) > 2 {
			// The worker offered an auth nonce we cannot answer: it is
			// keyed and we are not. Refusing beats silently running a
			// sweep the operator believed was authenticated.
			st.logf("worker %s: rejected: worker requires authentication, coordinator has no key", worker)
			wc.send("ERR " + quoteMsg("worker requires authentication but coordinator has no key configured"))
			return false
		}
		return true
	}
	if len(fields) < 3 {
		st.logf("worker %s: rejected: authentication required, no nonce offered", worker)
		wc.send("ERR " + quoteMsg("authentication required: configure the shared key on this worker"))
		return false
	}
	clientNonce := fields[2]
	coordNonce, err := newAuthNonce()
	if err != nil {
		wc.send("ERR " + quoteMsg(err.Error()))
		return false
	}
	if err := wc.send("CHAL " + coordNonce + " " + authProof(key, authCoordLabel, clientNonce)); err != nil {
		return false
	}
	line, err := wc.recv()
	if err != nil {
		return false
	}
	verb, f := splitMsg(line)
	if verb != "AUTH" || len(f) != 1 || !verifyAuthProof(key, authWorkerLabel, coordNonce, f[0]) {
		st.logf("worker %s: rejected: shared-key proof mismatch", worker)
		wc.send("ERR " + quoteMsg("authentication failed: shared-key proof mismatch"))
		return false
	}
	return true
}

// serveNext answers one NEXT: a lease, a WAIT (everything leased out
// and alive), DONE (sweep complete), or ABORT (sweep failed) — the
// DONE/ABORT distinction lets an idle worker on a failed sweep exit
// nonzero instead of reporting success.
func (st *coordState) serveNext(worker string, connID uint64) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished {
		if st.failure != nil {
			return "ABORT " + quoteMsg(st.failure.Error())
		}
		return "DONE"
	}
	if l, ok := st.leases.Acquire(worker, connID); ok {
		job := st.jobs[l.Chunk.JobIdx]
		mLeasesGranted.Inc()
		st.opts.Events.Emit(obs.Event{
			Event:  "lease_grant",
			Worker: worker,
			Exp:    job.Job.ExpID,
			Lease:  l.ID,
			Chunk:  obs.ChunkRange(l.Chunk.Lo, l.Chunk.Hi),
			Conn:   connID,
		})
		m := leaseMsg{
			ID:          l.ID,
			ExpID:       job.Job.ExpID,
			Fingerprint: job.Job.Fingerprint,
			Lo:          l.Chunk.Lo,
			Hi:          l.Chunk.Hi,
		}
		if tr := st.opts.Trace; tr.Enabled() {
			tid := int32(connID)
			// A pending retry flow means this grant is the re-home of a
			// stolen/failed chunk: terminate the arrow here.
			if id, ok := tr.TakePending(traceChunkKey(job.Job.ExpID, l.Chunk)); ok {
				tr.Emit(trace.Record{Ph: 'f', ID: id, TID: tid, Name: "retry", Cat: "flow"})
			}
			ctx := trace.LeaseContext(job.Job.ExpID, job.Job.Fingerprint, l.Chunk.Lo, l.Chunk.Hi)
			tr.Emit(trace.Record{Ph: 'B', TID: tid,
				Name: fmt.Sprintf("lease %s[%d,%d)", job.Job.ExpID, l.Chunk.Lo, l.Chunk.Hi),
				Cat:  "lease", Arg: worker})
			tr.Emit(trace.Record{Ph: 's', ID: ctx, TID: tid, Name: "lease", Cat: "flow"})
			m.Trace = strconv.FormatUint(ctx, 16)
		}
		return formatLease(m)
	}
	// All chunks are leased to live workers; poll again well inside
	// the TTL so a freshly expired lease is stolen promptly.
	wait := st.opts.LeaseTTL / 4
	if wait > 500*time.Millisecond {
		wait = 500 * time.Millisecond
	}
	if wait < 5*time.Millisecond {
		wait = 5 * time.Millisecond
	}
	return fmt.Sprintf("WAIT %d", wait.Milliseconds())
}

// completeLease answers one COMPLETE: it retires the lease and puts
// back on the queue any of its chunk's trials that still lack a
// result, in one critical section, so the chunk is never out of both
// the lease table and the queue while it has trials to run. The reply
// is OK, or GONE when the lease was already revoked (its results were
// still accepted by content).
//
//sf:wallclock — the lease-lifetime histogram observes real time.
func (st *coordState) completeLease(worker string, connID, id uint64) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	l, ok := st.leases.Complete(id)
	if !ok {
		return "GONE"
	}
	mLeasesCompleted.Inc()
	mLeaseSeconds.Observe(time.Since(l.Granted).Seconds())
	st.opts.Events.Emit(obs.Event{
		Event:  "lease_complete",
		Worker: worker,
		Exp:    st.jobs[l.Chunk.JobIdx].Job.ExpID,
		Lease:  l.ID,
		Chunk:  obs.ChunkRange(l.Chunk.Lo, l.Chunk.Hi),
		Conn:   connID,
	})
	if st.opts.Trace.Enabled() {
		st.opts.Trace.Emit(trace.Record{Ph: 'E', TID: int32(l.ConnID)})
	}
	// Coverage backstop: a COMPLETE whose results did not all arrive
	// (a worker that violated the Execute contract) must not strand
	// its chunk in limbo — the missing trials go back on the queue.
	if !st.chunkCoveredLocked(l.Chunk) {
		st.leases.Requeue(l.Chunk)
	}
	return "OK"
}

// failLease handles a worker's FAIL: it retires the lease and settles
// its chunk in one critical section. A FAIL on an already-revoked
// lease is ignored: the chunk was stolen and its fate belongs to its
// current owner — if the error is deterministic, that owner's FAIL (on
// a live lease) drives the retry accounting.
//
// The first failure of a chunk re-leases it once, preferring a
// different worker — one retry distinguishes a host-local fault (OOM
// kill, disk error, bad deploy on one machine) from a deterministic
// trial error without masking the latter. A second failure of the same
// chunk, by any worker, aborts the sweep, mirroring the engine's
// first-error-cancels semantics one retry later. Results land under
// the same lock (acceptResult), so a chunk whose last result races the
// FAIL can neither be requeued for pointless re-execution nor burn its
// retry budget. The events and the failure keep at most maxPeerMsg
// bytes of the worker's message.
func (st *coordState) failLease(worker string, id uint64, msg string) {
	msg = clipMsg(msg)
	st.mu.Lock()
	defer st.mu.Unlock()
	l, ok := st.leases.Complete(id)
	if !ok {
		return
	}
	if st.opts.Trace.Enabled() {
		st.opts.Trace.Emit(trace.Record{Ph: 'E', TID: int32(l.ConnID)})
	}
	c := l.Chunk
	if st.chunkCoveredLocked(c) {
		// Every trial of the chunk already holds a content-verified
		// result (a presumed-dead worker delivered late, the thief
		// then failed): the failure concerns work nobody needs —
		// neither a retry nor an abort. Mirrors the COMPLETE
		// handler's coverage backstop.
		return
	}
	expID := st.jobs[c.JobIdx].Job.ExpID
	if !st.chunkFailed[c] {
		st.chunkFailed[c] = true
		mChunkRetries.Inc()
		st.opts.Events.Emit(obs.Event{
			Event:  "chunk_retry",
			Worker: worker,
			Exp:    expID,
			Chunk:  obs.ChunkRange(c.Lo, c.Hi),
			Msg:    msg,
		})
		// Open the retry flow: the arrow from this failure to the
		// chunk's re-grant (serveNext consumes it). The lease span was
		// closed above.
		if tr := st.opts.Trace; tr.Enabled() {
			tr.Emit(trace.Record{Ph: 'i', Name: "chunk_retry", Cat: "lease", Arg: worker})
			base := trace.LeaseContext(expID, st.jobs[c.JobIdx].Job.Fingerprint, c.Lo, c.Hi)
			if id, ok := tr.NextFlow(traceChunkKey(expID, c), base); ok {
				tr.Emit(trace.Record{Ph: 's', ID: id, Name: "retry", Cat: "flow"})
			}
		}
		st.leases.RequeueAvoiding(c, worker)
		return
	}
	st.opts.Events.Emit(obs.Event{
		Event:  "chunk_fail",
		Worker: worker,
		Exp:    expID,
		Chunk:  obs.ChunkRange(c.Lo, c.Hi),
		Msg:    msg,
	})
	st.failLocked(fmt.Errorf("sweep: worker %s: %s (%s trials [%d,%d) already failed once and were re-leased)",
		worker, msg, expID, c.Lo, c.Hi))
}

// refuse handles a worker's REFUSE: this worker cannot run the sweep at
// all (plan mismatch, codec failure) — systematic, never chunk-local,
// so the lease is retired and the sweep aborts in one critical section
// rather than burning chunk retries. As in failLease, the event and
// the failure keep at most maxPeerMsg bytes of the message.
func (st *coordState) refuse(worker string, connID, id uint64, msg string) {
	msg = clipMsg(msg)
	st.mu.Lock()
	defer st.mu.Unlock()
	if l, ok := st.leases.Complete(id); ok && st.opts.Trace.Enabled() {
		st.opts.Trace.Emit(trace.Record{Ph: 'E', TID: int32(l.ConnID)})
	}
	mRefusals.Inc()
	st.opts.Events.Emit(obs.Event{Event: "worker_refuse", Worker: worker, Conn: connID, Msg: msg})
	st.failLocked(fmt.Errorf("sweep: worker %s: %s", worker, msg))
}

// acceptResult records one delivered trial result, counts the delivery
// as its lease's heartbeat, and stores a new value in opts.Cache. The
// record and the heartbeat are one critical section; the store runs
// after it, but before the handler reads its connection's next line,
// so a lease's results are all on disk before its COMPLETE is
// answered. An error fails the sweep even when it has finished, since
// it casts doubt on results already accepted.
func (st *coordState) acceptResult(worker string, m resultMsg) error {
	st.mu.Lock()
	job, v, err := st.recordResultLocked(worker, m)
	if err != nil {
		st.failNowLocked(err)
	} else {
		st.leases.Heartbeat(m.LeaseID) // streaming counts as liveness
	}
	st.mu.Unlock()
	if err != nil || v == nil {
		return err
	}
	if err := storeTrial(st.opts.Cache, job.Job.ExpID, job.Job.Fingerprint, job.Trials[m.Index], v); err != nil {
		err = fmt.Errorf("sweep: persisting %s trial %d: %w", m.ExpID, m.Index, err)
		st.mu.Lock()
		st.failNowLocked(err)
		st.mu.Unlock()
		return err
	}
	return nil
}

// recordResultLocked lands one delivered result at its plan index and
// returns the decoded value, or nil for a duplicate. Results are valid
// regardless of lease state — trials are pure, so a revoked lease's
// late delivery is identical to the stolen re-execution — but two
// deliveries that disagree expose a broken determinism contract.
func (st *coordState) recordResultLocked(worker string, m resultMsg) (CoordJob, any, error) {
	j, ok := st.byExp[m.ExpID]
	if !ok {
		return CoordJob{}, nil, fmt.Errorf("sweep: result for unknown experiment %q", clip(m.ExpID))
	}
	job := st.jobs[j]
	if m.Index < 0 || m.Index >= len(job.Trials) {
		return CoordJob{}, nil, fmt.Errorf("sweep: result index %d outside %s plan of %d trials", m.Index, m.ExpID, len(job.Trials))
	}
	if prev, dup := st.encoded[j][m.Index]; dup {
		mDupResults.Inc()
		if !bytes.Equal([]byte(prev), m.Payload) {
			return CoordJob{}, nil, fmt.Errorf("sweep: %s trial %d (%s): workers delivered different encodings — trial function is not deterministic",
				m.ExpID, m.Index, job.Trials[m.Index].Key)
		}
		return job, nil, nil
	}
	v, err := DecodeResult(m.Payload)
	if err != nil {
		return CoordJob{}, nil, fmt.Errorf("sweep: %s trial %d: %w", m.ExpID, m.Index, err)
	}
	st.encoded[j][m.Index] = string(m.Payload)
	st.results[j][m.Index] = v
	st.remaining--
	st.byWorker[worker]++
	mCoordResults.With(worker).Inc()
	if st.opts.OnResult != nil {
		st.opts.OnResult(worker, m.ExpID, job.Trials[m.Index], st.total-st.remaining)
	}
	if st.remaining == 0 {
		st.finishLocked()
	}
	return job, v, nil
}

// traceChunkKey identifies a chunk in the trace recorder's
// pending-flow table (steal/retry lineage).
func traceChunkKey(expID string, c chunk) string {
	return fmt.Sprintf("%s:%d:%d", expID, c.Lo, c.Hi)
}

// errLeaseRevoked is the worker-side cause when a chunk's lease was
// stolen mid-execution: the work is abandoned, not failed.
var errLeaseRevoked = errors.New("sweep: lease revoked")
