package sweep

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/obs"
	"scalefree/internal/obs/trace"
	"scalefree/internal/rng"
)

// WorkerJob is the worker-local counterpart of a CoordJob: the plan's
// trials plus an Execute closure that runs a subset of them through
// the caller's execution stack (engine options, scratch factory,
// result cache). Execute must honour sweep.Execute's semantics:
// results keyed by plan trial index, context cancellation respected.
type WorkerJob struct {
	Trials  []engine.Trial
	Execute func(ctx context.Context, trials []engine.Trial) (map[int]any, Stats, error)
}

// WorkerJobResolver maps a leased (experiment ID, plan fingerprint)
// onto the worker's local plan. Returning an error means the worker
// cannot run this sweep at all — wrong experiment selection, seed,
// scale, or binary revision — and aborts the sweep loudly on both
// sides rather than letting a misconfigured worker spin or, worse,
// compute under different parameters.
type WorkerJobResolver func(expID, fingerprint string) (*WorkerJob, error)

// WorkerOptions configures one RunWorker call.
type WorkerOptions struct {
	// Name identifies the worker in coordinator-side progress and
	// error messages; empty defaults to host:pid.
	Name string
	// Heartbeat overrides the coordinator-announced PING interval
	// (tests); <= 0 uses the announced value.
	Heartbeat time.Duration
	// AuthKey, if non-empty, authenticates the handshake by shared-key
	// HMAC challenge–response (auth.go). Both sides must agree: a
	// keyed worker refuses a keyless coordinator and vice versa.
	AuthKey string
	// DialRetries bounds consecutive failed connection attempts (dial
	// failures, dropped sessions with no protocol progress) before
	// RunWorker gives up. 0 means the default of 10; negative means a
	// single attempt with no retry. The counter resets every time a
	// coordinator reply parses, so a long sweep over a flaky link
	// retries indefinitely while a dead address still fails promptly.
	DialRetries int
	// ReconnectBase and ReconnectMax bound the exponential backoff
	// between attempts (defaults 100ms and 5s); the actual sleep is
	// jittered uniformly in [d/2, d) so a restarted coordinator is not
	// hit by its whole fleet at once.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// IOTimeout is the per-message wire deadline after the handshake;
	// <= 0 derives max(4×heartbeat, 1s), so a partitioned or hung
	// coordinator surfaces as a reconnectable error instead of a
	// worker pinned in a read forever.
	IOTimeout time.Duration
	// Log, if non-nil, receives one line per lease processed and per
	// reconnection attempt.
	Log func(format string, args ...any)
	// Events, if non-nil, receives structured worker-side lifecycle
	// records (reconnects, revoked leases, chunk failures). Strictly
	// observational.
	Events *obs.EventLog
	// Trace, if non-nil, is the worker's span recorder. It should be
	// created disabled: the first LEASE carrying a trace context (the
	// coordinator is tracing) enables it, so workers need no tracing
	// flag — the wire is the switch. The same recorder must be wired
	// into the engine options the resolver's Execute closures use, so
	// trial spans land in it; each traced lease drains it onto SPANS
	// lines the coordinator merges.
	Trace *trace.Recorder
}

const (
	defaultDialRetries     = 10
	workerHandshakeTimeout = 10 * time.Second
)

// RunWorker connects to a coordinator, pulls chunk leases until the
// coordinator reports the sweep done, executes each chunk via the
// resolver's Execute closure, and streams encoded results back. While
// a chunk executes, a background heartbeat keeps its lease alive; if
// the coordinator reports the lease revoked (this worker was presumed
// dead and its chunk stolen), the chunk's execution is cancelled and
// abandoned without error — the thief delivers the results. The
// returned stats aggregate what this worker executed and what its
// local cache satisfied.
//
// Transport failures are never fatal while retries remain: a failed
// dial (coordinator slow to start), a dropped or partitioned
// connection, or a line that does not parse all tear the session down
// and reconnect with exponential backoff + jitter, resuming the NEXT
// loop. Work abandoned mid-chunk is re-leased by the coordinator's
// disconnect revoke or TTL steal, and re-delivered results are
// resolved by encoded-byte equality, so reconnection never perturbs
// the table. Protocol-level rejections (version mismatch, failed
// authentication, ABORT, ERR) are fatal immediately.
//
// A chunk whose execution fails is reported to the coordinator as
// FAIL (which re-leases it once, see Coordinate) and the worker keeps
// pulling further chunks — the retry needs a live worker to land on,
// and with a single worker that is this one. If the sweep still
// completes, RunWorker returns a non-nil error recording the local
// failures so the host shows up unhealthy; a resolver error (plan
// mismatch — this worker cannot run the sweep at all) is reported as
// REFUSE, which aborts the sweep immediately on both sides.
//
//sf:wallclock — heartbeat pacing and reconnect backoff use real time.
func RunWorker(ctx context.Context, addr string, resolve WorkerJobResolver, opts WorkerOptions) (Stats, error) {
	var stats Stats
	name := opts.Name
	if name == "" {
		name = DefaultWorkerName()
	}
	opts.Name = name // downstream instrumentation tags events with it
	retries := opts.DialRetries
	switch {
	case retries == 0:
		retries = defaultDialRetries
	case retries < 0:
		retries = 1
	}
	base := opts.ReconnectBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxBackoff := opts.ReconnectMax
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}
	// Jitter only desynchronizes fleet retries; it never feeds trial
	// results, so a wall-clock seed does not touch determinism.
	jitter := rng.New(rng.DeriveSeed(uint64(time.Now().UnixNano()), uint64(os.Getpid())))

	var failed []*chunkFailure
	attempts := 0 // consecutive attempts without protocol progress
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		sess, err := dialWorkerSession(ctx, addr, name, opts)
		if err == nil {
			err = serveSession(ctx, sess, resolve, &stats, &failed, func() { attempts = 0 }, opts)
			sess.close()
			if err == nil {
				if len(failed) > 0 {
					// The sweep converged (retries landed elsewhere, or a
					// later attempt here succeeded), but this host failed
					// chunks — exit nonzero so the machine gets looked at.
					return stats, fmt.Errorf("sweep: completed, but this worker failed %d chunk(s) locally (first: %v)",
						len(failed), failed[0])
				}
				return stats, nil
			}
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return stats, ctxErr
		}
		var te *transportError
		if !errors.As(err, &te) {
			return stats, err
		}
		attempts++
		mWorkerReconnects.Inc()
		opts.Events.Emit(obs.Event{Event: "reconnect", Worker: name, N: int64(attempts), Msg: err.Error()})
		opts.Trace.Emit(trace.Record{Ph: 'i', Name: "reconnect", Cat: "worker", Arg: err.Error()})
		if attempts >= retries {
			return stats, fmt.Errorf("sweep: worker giving up on %s after %d consecutive connection attempts: %w", addr, attempts, err)
		}
		delay := backoffDelay(base, maxBackoff, attempts, jitter)
		if opts.Log != nil {
			opts.Log("connection attempt %d/%d failed (%v); retrying in %v", attempts, retries, err, delay.Round(time.Millisecond))
		}
		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// DefaultWorkerName is the host:pid identity a worker reports when no
// name is configured — shared by RunWorker and the CLI's status
// payload so both describe the same worker.
func DefaultWorkerName() string {
	host, _ := os.Hostname()
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// backoffDelay doubles from base toward max with attempt count, then
// jitters uniformly into [d/2, d).
func backoffDelay(base, max time.Duration, attempt int, jitter *rng.RNG) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(jitter.Float64()*float64(d/2))
}

// workerSession is one dialed, handshaken connection to the
// coordinator.
type workerSession struct {
	wc        *wireConn
	heartbeat time.Duration
	stopWatch func() bool
}

func (s *workerSession) close() {
	s.stopWatch()
	s.wc.close()
}

// dialWorkerSession dials the coordinator and completes the HELLO (and
// optional CHAL/AUTH) handshake. Transport failures come back as
// *transportError (retriable); rejections are fatal.
func dialWorkerSession(ctx context.Context, addr, name string, opts WorkerOptions) (*workerSession, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, &transportError{err: fmt.Errorf("sweep: worker connecting to %s: %w", addr, err)}
	}
	wc := newWireConn(conn, workerHandshakeTimeout)
	// Unblock any in-flight read when the caller cancels.
	stopWatch := context.AfterFunc(ctx, func() { conn.Close() })
	sess := &workerSession{wc: wc, stopWatch: stopWatch}
	if err := sess.handshake(name, opts); err != nil {
		sess.close()
		return nil, err
	}
	// Steady-state wire deadline: generous multiple of the heartbeat,
	// so a healthy coordinator never trips it but a hung one cannot
	// pin this worker past a few heartbeat periods.
	io := opts.IOTimeout
	if io <= 0 {
		io = 4 * sess.heartbeat
		if io < time.Second {
			io = time.Second
		}
	}
	wc.timeout = io
	return sess, nil
}

// handshake runs HELLO and, when a key is configured, the CHAL/AUTH
// exchange (wire.go documents the flow).
func (s *workerSession) handshake(name string, opts WorkerOptions) error {
	key := []byte(opts.AuthKey)
	hello := fmt.Sprintf("HELLO %s %s", protoVersion, name)
	var clientNonce string
	if len(key) > 0 {
		n, err := newAuthNonce()
		if err != nil {
			return err
		}
		clientNonce = n
		hello += " " + clientNonce
	}
	if err := s.wc.send(hello); err != nil {
		return &transportError{err: fmt.Errorf("sweep: worker handshake: %w", err)}
	}
	line, err := s.wc.recv()
	if err != nil {
		return &transportError{err: fmt.Errorf("sweep: worker handshake: %w", err)}
	}
	verb, fields := splitMsg(line)
	switch verb {
	case "OK":
		if len(key) > 0 {
			// A keyless coordinator accepted us without proving it holds
			// the key. Refuse to run unauthenticated: a keyed fleet must
			// be keyed end to end.
			return fmt.Errorf("sweep: coordinator does not require authentication but this worker has a key configured; refusing to run unauthenticated")
		}
	case "CHAL":
		if len(key) == 0 {
			return fmt.Errorf("sweep: coordinator requires shared-key authentication but this worker has no key configured")
		}
		if len(fields) != 2 {
			return fmt.Errorf("sweep: malformed CHAL %q", line)
		}
		coordNonce, coordProof := fields[0], fields[1]
		// Answer before verifying the coordinator's proof: with
		// mismatched keys both proofs fail, and sending ours first lets
		// the coordinator log its side of the mismatch too, so the
		// failure is diagnosable from either end.
		if err := s.wc.send("AUTH " + authProof(key, authWorkerLabel, coordNonce)); err != nil {
			return &transportError{err: fmt.Errorf("sweep: worker auth: %w", err)}
		}
		okLine, rerr := s.wc.recv()
		if !verifyAuthProof(key, authCoordLabel, clientNonce, coordProof) {
			msg := "sweep: coordinator failed its shared-key proof (key mismatch?)"
			if rerr == nil {
				if v, f := splitMsg(okLine); v == "ERR" {
					msg += "; coordinator says: " + unquoteMsg(f)
				}
			}
			return errors.New(msg)
		}
		if rerr != nil {
			return &transportError{err: fmt.Errorf("sweep: worker auth: %w", rerr)}
		}
		v, f := splitMsg(okLine)
		if v != "OK" {
			if v == "ERR" {
				return fmt.Errorf("sweep: coordinator rejected authentication: %s", unquoteMsg(f))
			}
			return fmt.Errorf("sweep: coordinator rejected authentication: %s", okLine)
		}
		fields = f
	case "ERR":
		return fmt.Errorf("sweep: coordinator rejected handshake: %s", unquoteMsg(fields))
	default:
		// Anything else (a truncated or fault-mangled line) is a
		// transport problem: reconnect and try again.
		return &transportError{err: fmt.Errorf("sweep: unexpected handshake reply %q", line)}
	}
	hb := opts.Heartbeat
	if hb <= 0 && len(fields) > 0 {
		if v, err := parseMillis(fields[0]); err == nil && v > 0 {
			hb = v
		}
	}
	if hb <= 0 {
		hb = 3 * time.Second
	}
	s.heartbeat = hb
	return nil
}

// serveSession runs the NEXT loop over one session. It returns nil on
// DONE; a *transportError for anything that a reconnection can heal;
// and a plain error for protocol-level finality (ABORT, ERR, refusal,
// context cancellation). progress is called whenever a coordinator
// reply parses, resetting the caller's consecutive-failure budget.
func serveSession(ctx context.Context, sess *workerSession, resolve WorkerJobResolver, stats *Stats, failed *[]*chunkFailure, progress func(), opts WorkerOptions) error {
	wc := sess.wc
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := wc.send("NEXT"); err != nil {
			return &transportError{err: fmt.Errorf("sweep: worker requesting chunk: %w", err)}
		}
		line, err := wc.recv()
		if err != nil {
			return &transportError{err: fmt.Errorf("sweep: worker requesting chunk: %w", err)}
		}
		verb, fields := splitMsg(line)
		switch verb {
		case "DONE":
			progress()
			return nil
		case "ABORT":
			// The sweep failed elsewhere (another worker's trial error
			// or config skew); exit nonzero so this worker's machine
			// also shows the failure.
			progress()
			return fmt.Errorf("sweep: aborted: %s", unquoteMsg(fields))
		case "WAIT":
			progress()
			if len(fields) != 1 {
				return &transportError{err: fmt.Errorf("sweep: malformed WAIT %q", line)}
			}
			d, err := parseMillis(fields[0])
			if err != nil {
				return &transportError{err: err}
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		case "LEASE":
			progress()
			m, err := parseLease(fields)
			if err != nil {
				return &transportError{err: err}
			}
			chunkStats, err := runLease(ctx, wc, m, resolve, sess.heartbeat, opts)
			stats.Executed += chunkStats.Executed
			stats.CacheHits += chunkStats.CacheHits
			if err != nil {
				var cf *chunkFailure
				if errors.As(err, &cf) {
					// The chunk's failure went to the coordinator as
					// FAIL; keep serving — the sweep continues until
					// the chunk's second failure, and the re-lease
					// needs a live worker.
					*failed = append(*failed, cf)
					continue
				}
				return err
			}
		case "ERR":
			progress()
			return fmt.Errorf("sweep: coordinator: %s", unquoteMsg(fields))
		default:
			return &transportError{err: fmt.Errorf("sweep: unexpected coordinator reply %q", line)}
		}
	}
}

// transportError marks a connection-level failure: dial errors,
// send/recv failures, and lines mangled past parsing. Transport loss
// is retriable by reconnection — the coordinator's disconnect/TTL
// reclaim requeues any mid-flight chunk without debiting its
// one-retry budget; a network blip is not a trial fault.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// chunkFailure is the worker-local record of one chunk whose
// execution failed: already reported to the coordinator as a
// retriable FAIL, and kept distinct from fatal errors so RunWorker
// continues serving other chunks.
type chunkFailure struct {
	expID  string
	lo, hi int
	err    error
}

func (c *chunkFailure) Error() string {
	return fmt.Sprintf("sweep: executing %s trials [%d,%d): %v", c.expID, c.lo, c.hi, c.err)
}

func (c *chunkFailure) Unwrap() error { return c.err }

// runLease executes one leased chunk and streams its results. A
// revoked lease (stolen chunk) is not an error: the work is abandoned
// and the caller polls for the next chunk. An execution failure comes
// back as a *chunkFailure (reported to the coordinator as FAIL,
// retriable); transport loss as a *transportError (the session
// reconnects); every other error is fatal to this worker.
func runLease(ctx context.Context, wc *wireConn, m leaseMsg, resolve WorkerJobResolver, heartbeat time.Duration, opts WorkerOptions) (Stats, error) {
	logf := opts.Log
	// SFCOORD4: a trace context on the lease line means the sweep is
	// traced. Enable the recorder (sticky — every traced lease carries
	// the field) and open the worker-side lease span, terminating the
	// coordinator's grant flow so the merged timeline draws the arrow
	// from the grant to the execution.
	traced := m.Trace != "" && opts.Trace != nil
	if traced {
		opts.Trace.SetEnabled(true)
		if id, perr := strconv.ParseUint(m.Trace, 16, 64); perr == nil {
			opts.Trace.Emit(trace.Record{Ph: 'f', ID: id, Name: "lease", Cat: "flow"})
		}
		opts.Trace.Emit(trace.Record{Ph: 'B',
			Name: fmt.Sprintf("lease %s[%d,%d)", m.ExpID, m.Lo, m.Hi), Cat: "lease"})
	}
	endSpan := func() {
		if traced {
			traced = false
			opts.Trace.Emit(trace.Record{Ph: 'E'})
		}
	}
	defer endSpan()
	// shipSpans closes the lease span and buffers everything recorded
	// since the last shipment (trial and phase spans from the engine
	// writers included) on as many SPANS lines as it needs, for the
	// next line sent to flush. Every path that keeps the connection
	// calls it, so a failed or revoked lease's spans ship too.
	shipSpans := func() error {
		if !traced {
			return nil
		}
		endSpan()
		for _, b := range opts.Trace.DrainBatches(spansBudget) {
			if err := wc.buffer(formatSpans(b.N, b.Data)); err != nil {
				return &transportError{err: fmt.Errorf("sweep: streaming spans: %w", err)}
			}
		}
		return nil
	}
	job, err := resolve(m.ExpID, m.Fingerprint)
	if err == nil && m.Hi > len(job.Trials) {
		err = fmt.Errorf("lease range [%d,%d) exceeds local plan of %d trials", m.Lo, m.Hi, len(job.Trials))
	}
	if err != nil {
		// The coordinator must learn this worker cannot participate
		// at all — a plan mismatch is systematic, never chunk-local,
		// so REFUSE aborts the sweep instead of burning retries (a
		// silent exit would look like a death and waste a TTL).
		sendFail(wc, "REFUSE", m.ID, err)
		return Stats{}, fmt.Errorf("sweep: lease for %s: %w", m.ExpID, err)
	}
	trials := job.Trials[m.Lo:m.Hi]
	if logf != nil {
		logf("lease %d: %s trials [%d,%d)", m.ID, m.ExpID, m.Lo, m.Hi)
	}

	results, stats, err := executeWithHeartbeat(ctx, wc, m.ID, job, trials, heartbeat)
	if err != nil {
		if errors.Is(err, errLeaseRevoked) {
			mWorkerLeasesLost.Inc()
			opts.Events.Emit(obs.Event{Event: "lease_revoked", Worker: opts.Name, Exp: m.ExpID, Lease: m.ID, Chunk: obs.ChunkRange(m.Lo, m.Hi)})
			if logf != nil {
				logf("lease %d revoked, chunk stolen", m.ID)
			}
			return stats, shipSpans()
		}
		if ctx.Err() != nil {
			return stats, ctx.Err()
		}
		var te *transportError
		if errors.As(err, &te) {
			// The connection broke mid-chunk: tear the session down and
			// reconnect. The coordinator's disconnect/TTL reclaim
			// requeues the work without touching its retry budget, and
			// a FAIL could not be delivered anyway.
			return stats, &transportError{err: fmt.Errorf("sweep: lease %d: heartbeat connection to coordinator lost: %w", m.ID, te.Unwrap())}
		}
		if serr := shipSpans(); serr != nil {
			return stats, serr
		}
		sendFail(wc, "FAIL", m.ID, err)
		mWorkerChunkFailures.Inc()
		opts.Events.Emit(obs.Event{Event: "chunk_fail", Worker: opts.Name, Exp: m.ExpID, Lease: m.ID, Chunk: obs.ChunkRange(m.Lo, m.Hi), Msg: err.Error()})
		if logf != nil {
			logf("lease %d: %s trials [%d,%d) failed: %v", m.ID, m.ExpID, m.Lo, m.Hi, err)
		}
		return stats, &chunkFailure{expID: m.ExpID, lo: m.Lo, hi: m.Hi, err: err}
	}

	// Stream the chunk's results in index order (determinism of the
	// wire stream itself is not required — results land positionally —
	// but ordered streams make captures diffable), then synchronize on
	// COMPLETE's acknowledgement.
	idxs := make([]int, 0, len(results))
	for i := range results {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		payload, err := EncodeResult(results[i])
		if err != nil {
			// An unencodable result is a binary-level bug (unregistered
			// type), identical on every worker — abort, don't retry.
			sendFail(wc, "REFUSE", m.ID, err)
			return stats, fmt.Errorf("sweep: encoding %s trial %d: %w", m.ExpID, i, err)
		}
		if err := wc.buffer(formatResult(m.ID, m.ExpID, i, payload)); err != nil {
			return stats, &transportError{err: fmt.Errorf("sweep: streaming results: %w", err)}
		}
	}
	if err := shipSpans(); err != nil {
		return stats, err
	}
	if err := wc.send(fmt.Sprintf("COMPLETE %d", m.ID)); err != nil {
		return stats, &transportError{err: fmt.Errorf("sweep: completing lease: %w", err)}
	}
	line, err := wc.recv()
	if err != nil {
		return stats, &transportError{err: fmt.Errorf("sweep: completing lease: %w", err)}
	}
	switch verb, fields := splitMsg(line); verb {
	case "OK", "GONE": // GONE: lease was stolen but the results were accepted
		mWorkerChunks.Inc()
		return stats, nil
	case "ERR":
		return stats, fmt.Errorf("sweep: coordinator: %s", unquoteMsg(fields))
	default:
		return stats, &transportError{err: fmt.Errorf("sweep: unexpected COMPLETE reply %q", line)}
	}
}

// executeWithHeartbeat runs the chunk while a background goroutine
// owns the connection, pinging the lease every interval. The two
// goroutines never touch the connection concurrently: the main
// goroutine is inside Execute for exactly the period the heartbeater
// runs, and resumes only after the heartbeater has fully stopped.
func executeWithHeartbeat(ctx context.Context, wc *wireConn, leaseID uint64, job *WorkerJob, trials []engine.Trial, interval time.Duration) (map[int]any, Stats, error) {
	hbCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	stop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-hbCtx.Done():
				return
			case <-ticker.C:
				mWorkerHeartbeats.Inc()
				if err := wc.send(fmt.Sprintf("PING %d", leaseID)); err != nil {
					cancel(&transportError{err: err})
					return
				}
				line, err := wc.recv()
				if err != nil {
					cancel(&transportError{err: err})
					return
				}
				if verb, _ := splitMsg(line); verb == "GONE" {
					cancel(errLeaseRevoked)
					return
				}
			}
		}
	}()
	results, stats, err := job.Execute(hbCtx, trials)
	close(stop)
	<-hbDone
	if err != nil {
		// Surface the cancellation's cause: a revoked lease or a
		// heartbeat transport failure explains the abort better than
		// the bare context.Canceled the engine reports.
		if cause := context.Cause(hbCtx); cause != nil && !errors.Is(err, cause) && errors.Is(err, context.Canceled) {
			err = cause
		}
	}
	return results, stats, err
}

// sendFail reports a failure under the given verb: "FAIL" (chunk
// execution failed; the coordinator re-leases it once) or "REFUSE"
// (this worker cannot run the sweep; the coordinator aborts).
func sendFail(wc *wireConn, verb string, leaseID uint64, failure error) {
	if err := wc.send(fmt.Sprintf("%s %d %s", verb, leaseID, quoteMsg(failure.Error()))); err != nil {
		return
	}
	wc.recv() // the OK acknowledgement; errors are moot at this point
}
