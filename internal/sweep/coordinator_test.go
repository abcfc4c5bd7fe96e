package sweep

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/rng"
)

func TestChunked(t *testing.T) {
	jobs := []CoordJob{
		{Job: Job{ExpID: "A", Fingerprint: "fa"}, Trials: makeTrials(10)},
		{Job: Job{ExpID: "B", Fingerprint: "fb"}, Trials: makeTrials(3)},
	}
	cs := chunked(jobs, 4)
	want := []chunk{{0, 0, 4}, {0, 4, 8}, {0, 8, 10}, {1, 0, 3}}
	if len(cs) != len(want) {
		t.Fatalf("chunked = %v, want %v", cs, want)
	}
	for i := range cs {
		if cs[i] != want[i] {
			t.Errorf("chunk %d = %v, want %v", i, cs[i], want[i])
		}
	}
	// Coverage: every trial of every job in exactly one chunk.
	seen := map[[2]int]int{}
	for _, c := range cs {
		for i := c.Lo; i < c.Hi; i++ {
			seen[[2]int{c.JobIdx, i}]++
		}
	}
	if len(seen) != 13 {
		t.Errorf("chunks cover %d trial slots, want 13", len(seen))
	}
}

func TestLeaseTableLifecycle(t *testing.T) {
	clock := time.Unix(5000, 0)
	lt := newLeaseTable([]chunk{{0, 0, 4}, {0, 4, 8}}, 10*time.Second)
	lt.now = func() time.Time { return clock }

	l1, ok := lt.Acquire("w1", 1)
	if !ok || l1.Chunk != (chunk{0, 0, 4}) {
		t.Fatalf("first acquire = %+v, %v", l1, ok)
	}
	l2, ok := lt.Acquire("w2", 2)
	if !ok || l2.Chunk != (chunk{0, 4, 8}) {
		t.Fatalf("second acquire = %+v, %v", l2, ok)
	}
	if _, ok := lt.Acquire("w3", 3); ok {
		t.Fatal("acquire succeeded with nothing pending")
	}

	// Heartbeats extend; an extended lease survives the original TTL.
	clock = clock.Add(8 * time.Second)
	if !lt.Heartbeat(l1.ID) {
		t.Fatal("heartbeat on a live lease failed")
	}
	clock = clock.Add(8 * time.Second) // l1 extended to 5016+10; l2 expired at 5010
	l3, ok := lt.Acquire("w3", 3)
	if !ok || l3.Chunk != l2.Chunk {
		t.Fatalf("expired lease not stolen: %+v, %v", l3, ok)
	}
	// The dead worker's late heartbeat reports the revocation.
	if lt.Heartbeat(l2.ID) {
		t.Error("heartbeat on a revoked lease succeeded")
	}

	if l, ok := lt.Complete(l1.ID); !ok || l.Chunk != l1.Chunk {
		t.Errorf("completing a live lease = %v, %v", l, ok)
	}
	if _, ok := lt.Complete(l1.ID); ok {
		t.Error("double-complete succeeded")
	}

	// A dropped connection returns its leases immediately.
	if n := lt.RevokeConn(3); n != 1 {
		t.Errorf("RevokeConn revoked %d leases, want 1", n)
	}
	l4, ok := lt.Acquire("w4", 4)
	if !ok || l4.Chunk != l2.Chunk {
		t.Fatalf("revoked chunk not reassigned: %+v, %v", l4, ok)
	}
	if lt.Idle() {
		t.Error("table idle with an active lease")
	}
	lt.Complete(l4.ID)
	if !lt.Idle() {
		t.Error("table not idle after all chunks completed")
	}
	// Requeue resurrects a chunk whose COMPLETE lacked coverage.
	lt.Requeue(l4.Chunk)
	if l5, ok := lt.Acquire("w5", 5); !ok || l5.Chunk != l4.Chunk {
		t.Errorf("requeued chunk not reacquirable: %+v, %v", l5, ok)
	}
}

// TestLeaseTableAvoidPreference: a chunk requeued after a worker's
// FAIL is withheld from that worker for one TTL — any other worker
// takes it immediately, and after the hold expires the failer itself
// gets it back (liveness for lone workers, without letting an idle
// faulty host outrace healthy-but-busy ones).
func TestLeaseTableAvoidPreference(t *testing.T) {
	clock := time.Unix(9000, 0)
	c1, c2 := chunk{0, 0, 4}, chunk{0, 4, 8}
	lt := newLeaseTable(nil, 10*time.Second)
	lt.now = func() time.Time { return clock }
	lt.RequeueAvoiding(c1, "w1")
	lt.Requeue(c2)

	// w1 skips its own failed chunk while an alternative is pending.
	l, ok := lt.Acquire("w1", 1)
	if !ok || l.Chunk != c2 {
		t.Fatalf("w1 acquired %+v, %v; want the non-avoided chunk %v", l.Chunk, ok, c2)
	}
	// With only its own failed chunk pending and the hold still live,
	// w1 waits instead of taking the retry back.
	if l, ok := lt.Acquire("w1", 1); ok {
		t.Fatalf("w1 acquired withheld chunk %+v", l.Chunk)
	}
	// A different worker takes the failed chunk without ceremony.
	l, ok = lt.Acquire("w2", 2)
	if !ok || l.Chunk != c1 {
		t.Fatalf("w2 acquired %+v, %v; want the avoided chunk %v", l.Chunk, ok, c1)
	}

	// Liveness: once the hold expires, a lone failer gets its chunk
	// back and can drive the retry to the second-failure verdict.
	lt2 := newLeaseTable(nil, 10*time.Second)
	lt2.now = func() time.Time { return clock }
	lt2.RequeueAvoiding(c1, "w1")
	if l, ok := lt2.Acquire("w1", 1); ok {
		t.Fatalf("w1 acquired withheld chunk %+v before the hold expired", l.Chunk)
	}
	clock = clock.Add(11 * time.Second)
	l, ok = lt2.Acquire("w1", 1)
	if !ok || l.Chunk != c1 {
		t.Fatalf("lone w1 acquired %+v, %v after the hold; want %v", l.Chunk, ok, c1)
	}
}

func TestWireMessages(t *testing.T) {
	lm := leaseMsg{ID: 7, ExpID: "E4", Fingerprint: "abc123", Lo: 8, Hi: 16}
	verb, fields := splitMsg(formatLease(lm))
	if verb != "LEASE" {
		t.Fatalf("verb = %q", verb)
	}
	got, err := parseLease(fields)
	if err != nil || got != lm {
		t.Fatalf("lease round trip = %+v, %v", got, err)
	}

	payload := []byte{0x00, 0xfe, 0x10}
	verb, fields = splitMsg(formatResult(9, "E2", 42, payload))
	if verb != "RESULT" {
		t.Fatalf("verb = %q", verb)
	}
	rm, err := parseResult(fields)
	if err != nil || rm.LeaseID != 9 || rm.ExpID != "E2" || rm.Index != 42 || string(rm.Payload) != string(payload) {
		t.Fatalf("result round trip = %+v, %v", rm, err)
	}

	msg := `a "quoted" message with spaces`
	_, fields = splitMsg("FAIL 3 " + quoteMsg(msg))
	if got := unquoteMsg(fields[1:]); got != msg {
		t.Errorf("unquoteMsg = %q, want %q", got, msg)
	}

	for _, bad := range [][]string{nil, {"x", "E1", "1", "00"}, {"1", "E1", "x", "00"}, {"1", "E1", "1", "zz"}, {"1", "2"}} {
		if _, err := parseResult(bad); err == nil {
			t.Errorf("parseResult(%v) succeeded", bad)
		}
	}
	if _, err := parseLease([]string{"1", "E1", "fp", "4", "2"}); err == nil {
		t.Error("parseLease accepted hi < lo")
	}
}

// coordFixture runs a coordinator over loopback for a single synthetic
// job and returns the address plus a channel carrying Coordinate's
// outcome.
type coordOutcome struct {
	results []map[int]any
	err     error
}

func startCoordinator(t *testing.T, jobs []CoordJob, opts CoordOptions) (addr string, outcome chan coordOutcome, cancel context.CancelFunc) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	outcome = make(chan coordOutcome, 1)
	go func() {
		res, err := Coordinate(ctx, lis, jobs, opts)
		outcome <- coordOutcome{res, err}
	}()
	return lis.Addr().String(), outcome, cancel
}

// countingResolver resolves the synthetic job and counts executed
// trials across all chunks.
func countingResolver(job Job, trials []engine.Trial, executed *atomic.Int64) WorkerJobResolver {
	return func(expID, fingerprint string) (*WorkerJob, error) {
		if expID != job.ExpID || fingerprint != job.Fingerprint {
			return nil, fmt.Errorf("unknown job %s/%s", expID, fingerprint)
		}
		return &WorkerJob{
			Trials: trials,
			Execute: func(ctx context.Context, sub []engine.Trial) (map[int]any, Stats, error) {
				return Execute(ctx, job, sub, engine.Options{Workers: 2}, nil, noScratch,
					func(ctx context.Context, tr engine.Trial, r *rng.RNG, s struct{}) (any, error) {
						executed.Add(1)
						return trialFn(ctx, tr, r, s)
					})
			},
		}, nil
	}
}

func checkResults(t *testing.T, trials []engine.Trial, results []map[int]any) {
	t.Helper()
	if len(results) != 1 {
		t.Fatalf("coordinator returned %d jobs", len(results))
	}
	if len(results[0]) != len(trials) {
		t.Fatalf("coordinator assembled %d of %d results", len(results[0]), len(trials))
	}
	for _, tr := range trials {
		if results[0][tr.Index] != float64(tr.Seed)*1.5 {
			t.Fatalf("trial %d: result %v", tr.Index, results[0][tr.Index])
		}
	}
}

func TestCoordinateSingleWorker(t *testing.T) {
	trials := makeTrials(21)
	job := testJob(trials)
	var completions atomic.Int64
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: 2 * time.Second,
			OnResult: func(worker, expID string, tr engine.Trial, done int) {
				if n := completions.Add(1); int64(done) != n {
					t.Errorf("OnResult call %d reports %d trials done", n, done)
				}
			}})
	defer cancel()

	var executed atomic.Int64
	stats, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed), WorkerOptions{Name: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 21 || executed.Load() != 21 {
		t.Errorf("worker stats %+v, executed %d; want 21", stats, executed.Load())
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
	if completions.Load() != 21 {
		t.Errorf("OnResult fired %d times, want 21", completions.Load())
	}
}

func TestCoordinateManyWorkers(t *testing.T) {
	trials := makeTrials(60)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 5, LeaseTTL: 2 * time.Second})
	defer cancel()

	var executed atomic.Int64
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		go func(w int) {
			_, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed),
				WorkerOptions{Name: fmt.Sprintf("w%d", w)})
			errs <- err
		}(w)
	}
	for w := 0; w < 3; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
	// Live workers never contend for the same chunk, so nothing
	// re-executes.
	if executed.Load() != 60 {
		t.Errorf("3 live workers executed %d trials, want exactly 60", executed.Load())
	}
}

// deadWorker takes one lease by hand and then goes silent. close()
// simulates a crash the coordinator can observe as an EOF.
type deadWorker struct {
	t  *testing.T
	wc *wireConn
}

func dialDeadWorker(t *testing.T, addr, name string) *deadWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := newWireConn(conn, 0)
	if err := wc.send("HELLO " + protoVersion + " " + name); err != nil {
		t.Fatal(err)
	}
	if line, err := wc.recv(); err != nil || !strings.HasPrefix(line, "OK") {
		t.Fatalf("handshake: %q, %v", line, err)
	}
	return &deadWorker{t: t, wc: wc}
}

func (d *deadWorker) takeLease() leaseMsg {
	d.t.Helper()
	if err := d.wc.send("NEXT"); err != nil {
		d.t.Fatal(err)
	}
	line, err := d.wc.recv()
	if err != nil {
		d.t.Fatal(err)
	}
	verb, fields := splitMsg(line)
	if verb != "LEASE" {
		d.t.Fatalf("NEXT reply = %q, want a lease", line)
	}
	m, err := parseLease(fields)
	if err != nil {
		d.t.Fatal(err)
	}
	return m
}

// TestCoordinateWorkerDisconnectReassigns: a worker that takes a chunk
// and drops its connection loses the lease immediately; a live worker
// steals the chunk and the sweep still assembles every result.
func TestCoordinateWorkerDisconnectReassigns(t *testing.T) {
	trials := makeTrials(24)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 6, LeaseTTL: time.Minute}) // TTL far longer than the test: only the EOF path can reassign
	defer cancel()

	dead := dialDeadWorker(t, addr, "doomed")
	m := dead.takeLease()
	if m.Hi-m.Lo != 6 {
		t.Fatalf("lease %+v, want a 6-trial chunk", m)
	}
	dead.wc.close() // crash: lease must return to the queue without waiting for the TTL

	var executed atomic.Int64
	stats, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed), WorkerOptions{Name: "live"})
	if err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
	// The dead worker executed nothing, so the live worker runs every
	// trial exactly once — the forfeited chunk is re-leased, not lost.
	if stats.Executed != 24 || executed.Load() != 24 {
		t.Errorf("live worker executed %d (stats %+v), want 24", executed.Load(), stats)
	}
}

// TestCoordinateLeaseExpiryStealsChunk: a worker that hangs without
// disconnecting (no heartbeats) forfeits its chunk after the TTL.
func TestCoordinateLeaseExpiryStealsChunk(t *testing.T) {
	trials := makeTrials(12)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: 150 * time.Millisecond, Linger: 100 * time.Millisecond})
	defer cancel()

	hung := dialDeadWorker(t, addr, "hung")
	defer hung.wc.close()
	m := hung.takeLease() // never pinged, never completed

	var executed atomic.Int64
	stats, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed), WorkerOptions{Name: "live"})
	if err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
	if executed.Load() != 12 {
		t.Errorf("executed %d trials, want 12 (stolen chunk [%d,%d) runs once)", executed.Load(), m.Lo, m.Hi)
	}
	_ = stats
}

// TestCoordinateLateDuplicateAccepted: a revoked worker that finishes
// anyway delivers results the coordinator accepts (content-addressed,
// byte-identical) without double-counting completions.
func TestCoordinateLateDuplicateAccepted(t *testing.T) {
	trials := makeTrials(8)
	job := testJob(trials)
	var completions atomic.Int64
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: 100 * time.Millisecond, Linger: time.Second,
			// The hand-driven slow worker goes silent past the default
			// wire deadline; keep its connection alive for the late
			// delivery under test.
			IOTimeout: time.Minute,
			OnResult:  func(worker, expID string, tr engine.Trial, done int) { completions.Add(1) }})
	defer cancel()

	slow := dialDeadWorker(t, addr, "slow")
	defer slow.wc.close()
	m := slow.takeLease()
	time.Sleep(250 * time.Millisecond) // lease expires; chunk becomes stealable

	// The live worker completes the whole sweep, including the stolen
	// chunk.
	var executed atomic.Int64
	if _, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed), WorkerOptions{Name: "live"}); err != nil {
		t.Fatal(err)
	}

	// Now the slow worker wakes up and delivers its (identical)
	// results late. The coordinator accepts the bytes and stays
	// converged.
	for i := m.Lo; i < m.Hi; i++ {
		payload, err := EncodeResult(float64(trials[i].Seed) * 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := slow.wc.buffer(formatResult(m.ID, job.ExpID, trials[i].Index, payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := slow.wc.send(fmt.Sprintf("COMPLETE %d", m.ID)); err != nil {
		t.Fatal(err)
	}
	if line, err := slow.wc.recv(); err != nil || line != "GONE" {
		t.Fatalf("late COMPLETE reply = %q, %v; want GONE", line, err)
	}

	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
	if completions.Load() != 8 {
		t.Errorf("OnResult fired %d times, want 8 (duplicates must not re-fire)", completions.Load())
	}
}

// TestCoordinatePartialCompleteRequeues: a COMPLETE whose results did
// not all arrive (a worker violating the Execute contract) must not
// strand the chunk's undelivered trials — they return to the queue
// and the sweep still converges instead of hanging forever.
func TestCoordinatePartialCompleteRequeues(t *testing.T) {
	trials := makeTrials(8)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: time.Minute, Linger: time.Second})
	defer cancel()

	// A buggy worker: takes the first chunk, delivers only half of it,
	// then claims COMPLETE and disconnects.
	buggy := dialDeadWorker(t, addr, "buggy")
	m := buggy.takeLease()
	for i := m.Lo; i < m.Lo+2; i++ {
		payload, err := EncodeResult(float64(trials[i].Seed) * 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := buggy.wc.buffer(formatResult(m.ID, job.ExpID, trials[i].Index, payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := buggy.wc.send(fmt.Sprintf("COMPLETE %d", m.ID)); err != nil {
		t.Fatal(err)
	}
	if line, err := buggy.wc.recv(); err != nil || line != "OK" {
		t.Fatalf("COMPLETE reply = %q, %v", line, err)
	}
	buggy.wc.close()

	// An honest worker finishes the sweep, including the requeued
	// remainder of the buggy chunk.
	var executed atomic.Int64
	if _, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed), WorkerOptions{Name: "honest"}); err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
}

// TestCoordinateAbortReachesIdleWorkers: when a chunk's second failure
// aborts the sweep, a worker that contributed nothing to the failure
// must also exit with an error — not report success for a failed
// sweep.
func TestCoordinateAbortReachesIdleWorkers(t *testing.T) {
	trials := makeTrials(4)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: time.Minute, Linger: time.Second})
	defer cancel()

	// The first doomed worker takes the only chunk, so the bystander
	// worker that joins next idles in the WAIT/NEXT poll loop. The
	// bystander shares the failer's name, so after the FAIL below the
	// avoidance hold (one TTL = a minute here) deterministically keeps
	// it waiting instead of letting it race doomed2 for the re-queued
	// chunk.
	w := dialDeadWorker(t, addr, "doomed")
	defer w.wc.close()
	m := w.takeLease()
	innocent := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), addr,
			countingResolver(job, trials, new(atomic.Int64)), WorkerOptions{Name: "doomed"})
		innocent <- err
	}()
	time.Sleep(100 * time.Millisecond) // let it connect and start polling

	if err := w.wc.send(fmt.Sprintf("FAIL %d %s", m.ID, quoteMsg("trial exploded"))); err != nil {
		t.Fatal(err)
	}
	if line, err := w.wc.recv(); err != nil || line != "OK" {
		t.Fatalf("FAIL reply = %q, %v", line, err)
	}
	// First failure re-leases instead of aborting; a second doomed
	// worker burns the retry and aborts the sweep.
	w2 := dialDeadWorker(t, addr, "doomed2")
	defer w2.wc.close()
	m2 := w2.takeLease()
	if err := w2.wc.send(fmt.Sprintf("FAIL %d %s", m2.ID, quoteMsg("trial exploded"))); err != nil {
		t.Fatal(err)
	}
	if line, err := w2.wc.recv(); err != nil || line != "OK" {
		t.Fatalf("second FAIL reply = %q, %v", line, err)
	}

	// The idle worker's next poll sees ABORT, not DONE: it must exit
	// with the sweep's failure, not report success.
	if err := <-innocent; err == nil || !strings.Contains(err.Error(), "trial exploded") {
		t.Fatalf("innocent worker err = %v, want the sweep's abort cause", err)
	}
	out := <-outcome
	if out.err == nil || !strings.Contains(out.err.Error(), "trial exploded") {
		t.Fatalf("coordinator err = %v", out.err)
	}
}

// TestCoordinateLateFailureAfterSuccess: once the sweep has finished
// with every trial's result in hand, a straggler's FAIL or REFUSE
// (e.g. the live holder of a stolen chunk erroring during the linger
// window) must not flip the outcome to an error — the result set is
// complete and content-verified.
func TestCoordinateLateFailureAfterSuccess(t *testing.T) {
	trials := makeTrials(4)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: 150 * time.Millisecond, Linger: time.Second})
	defer cancel()

	// The slow worker takes the only chunk and lets its lease expire.
	slow := dialDeadWorker(t, addr, "slow")
	defer slow.wc.close()
	m := slow.takeLease()
	time.Sleep(250 * time.Millisecond)

	// The thief takes the stolen chunk but the slow worker delivers
	// everything first: the sweep completes successfully.
	thief := dialDeadWorker(t, addr, "thief")
	defer thief.wc.close()
	m2 := thief.takeLease()
	if m2.Lo != m.Lo || m2.Hi != m.Hi {
		t.Fatalf("thief leased %+v, want the stolen chunk %+v", m2, m)
	}
	for i := m.Lo; i < m.Hi; i++ {
		payload, err := EncodeResult(float64(trials[i].Seed) * 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := slow.wc.buffer(formatResult(m.ID, job.ExpID, trials[i].Index, payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := slow.wc.send(fmt.Sprintf("COMPLETE %d", m.ID)); err != nil {
		t.Fatal(err)
	}
	if line, err := slow.wc.recv(); err != nil || line != "GONE" {
		t.Fatalf("late COMPLETE reply = %q, %v; want GONE", line, err)
	}

	// Now the thief fails its (pointless) lease. The sweep is already
	// done; the failure must be ignored on the coordinator side.
	if err := thief.wc.send(fmt.Sprintf("REFUSE %d %s", m2.ID, quoteMsg("too late to matter"))); err != nil {
		t.Fatal(err)
	}
	if line, err := thief.wc.recv(); err != nil || line != "OK" {
		t.Fatalf("late REFUSE reply = %q, %v", line, err)
	}

	out := <-outcome
	if out.err != nil {
		t.Fatalf("late failure flipped a completed sweep to error: %v", out.err)
	}
	checkResults(t, trials, out.results)
}

// TestCoordinateFailOnCoveredChunkIgnored: a FAIL for a chunk whose
// trials all hold results already (delivered late by the presumed-dead
// original holder) must neither requeue the chunk — that would
// guarantee duplicate re-execution — nor count toward its abort
// budget.
func TestCoordinateFailOnCoveredChunkIgnored(t *testing.T) {
	trials := makeTrials(8)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: 150 * time.Millisecond, Linger: time.Second})
	defer cancel()

	// The slow worker takes the first chunk and lets the lease expire;
	// the thief re-leases it.
	slow := dialDeadWorker(t, addr, "slow")
	defer slow.wc.close()
	m := slow.takeLease()
	time.Sleep(250 * time.Millisecond)
	thief := dialDeadWorker(t, addr, "thief")
	defer thief.wc.close()
	// The reclaimed chunk lands behind the never-leased one in the
	// queue, so the thief drains leases until it holds the stolen one
	// (its other lease is left to expire for the healthy worker).
	m2 := thief.takeLease()
	if m2.Lo != m.Lo || m2.Hi != m.Hi {
		m2 = thief.takeLease()
	}
	if m2.Lo != m.Lo || m2.Hi != m.Hi {
		t.Fatalf("thief leased %+v, want the stolen chunk %+v", m2, m)
	}

	// The slow worker delivers the whole chunk late — accepted by
	// content address — and then the thief's execution fails.
	for i := m.Lo; i < m.Hi; i++ {
		payload, err := EncodeResult(float64(trials[i].Seed) * 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := slow.wc.buffer(formatResult(m.ID, job.ExpID, trials[i].Index, payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := slow.wc.send(fmt.Sprintf("COMPLETE %d", m.ID)); err != nil {
		t.Fatal(err)
	}
	if line, err := slow.wc.recv(); err != nil || line != "GONE" {
		t.Fatalf("late COMPLETE reply = %q, %v; want GONE", line, err)
	}
	if err := thief.wc.send(fmt.Sprintf("FAIL %d %s", m2.ID, quoteMsg("host fault on covered work"))); err != nil {
		t.Fatal(err)
	}
	if line, err := thief.wc.recv(); err != nil || line != "OK" {
		t.Fatalf("FAIL reply = %q, %v", line, err)
	}

	// A healthy worker finishes the sweep: only the second chunk's 4
	// trials execute — the covered chunk was not requeued.
	var executed atomic.Int64
	if _, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed),
		WorkerOptions{Name: "healthy"}); err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatalf("sweep aborted on a covered chunk's failure: %v", out.err)
	}
	checkResults(t, trials, out.results)
	if executed.Load() != 4 {
		t.Errorf("executed %d trials, want 4 (the covered chunk must not re-run)", executed.Load())
	}
}

// TestWorkerHeartbeatLossIsFatalNotChunkFail: a connection loss during
// chunk execution is a transport fault, not a trial fault — with
// reconnection disabled (DialRetries < 0) the worker exits with the
// heartbeat cause and records no local chunk failure, leaving the
// chunk's retry budget untouched (the coordinator's disconnect
// reclaim requeues it).
func TestWorkerHeartbeatLossIsFatalNotChunkFail(t *testing.T) {
	trials := makeTrials(4)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: 200 * time.Millisecond, Linger: 10 * time.Millisecond})
	defer cancel()

	resolver := func(expID, fingerprint string) (*WorkerJob, error) {
		return &WorkerJob{
			Trials: trials,
			Execute: func(ctx context.Context, sub []engine.Trial) (map[int]any, Stats, error) {
				// Kill the coordinator mid-execution; once its linger
				// passes it closes the connection, the heartbeat errors,
				// and the execution context is cancelled with the
				// transport cause.
				cancel()
				<-ctx.Done()
				return nil, Stats{}, ctx.Err()
			},
		}, nil
	}
	_, err := RunWorker(context.Background(), addr, resolver,
		WorkerOptions{Name: "w", Heartbeat: 30 * time.Millisecond, DialRetries: -1})
	if err == nil || !strings.Contains(err.Error(), "heartbeat connection to coordinator lost") {
		t.Fatalf("worker err = %v, want the heartbeat transport cause", err)
	}
	if strings.Contains(err.Error(), "failed") {
		t.Fatalf("worker err %v misreports a transport loss as a chunk failure", err)
	}
	<-outcome // the cancelled coordinator's error is not under test
}

// TestCoordinateLateNondeterminismStillAborts: unlike a straggler's
// FAIL/REFUSE (ignored once the sweep has finished), a byte-mismatched
// duplicate arriving after completion must still abort — it proves a
// worker computed divergent results, casting doubt on everything it
// delivered first earlier in the sweep.
func TestCoordinateLateNondeterminismStillAborts(t *testing.T) {
	trials := makeTrials(4)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		// IOTimeout keeps the deliberately-silent worker's connection
		// alive past the default wire deadline for the late delivery.
		CoordOptions{ChunkSize: 4, LeaseTTL: 100 * time.Millisecond, Linger: time.Second, IOTimeout: time.Minute})
	defer cancel()

	slow := dialDeadWorker(t, addr, "slow")
	defer slow.wc.close()
	m := slow.takeLease()
	time.Sleep(200 * time.Millisecond) // lease expires; chunk becomes stealable

	// The live worker completes the whole sweep.
	if _, err := RunWorker(context.Background(), addr,
		countingResolver(job, trials, new(atomic.Int64)), WorkerOptions{Name: "live"}); err != nil {
		t.Fatal(err)
	}

	// The slow worker wakes up and delivers a divergent encoding for a
	// trial that already has a result.
	bad, err := EncodeResult(999.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.wc.send(formatResult(m.ID, job.ExpID, trials[0].Index, bad)); err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err == nil || !strings.Contains(out.err.Error(), "not deterministic") {
		t.Fatalf("coordinator err = %v, want the determinism violation even after completion", out.err)
	}
}

// TestCoordinateDetectsNondeterminism: two deliveries for one trial
// that disagree byte-for-byte abort the sweep — silent table
// corruption is the one unacceptable outcome.
func TestCoordinateDetectsNondeterminism(t *testing.T) {
	trials := makeTrials(4)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: time.Minute, Linger: 50 * time.Millisecond})
	defer cancel()

	w := dialDeadWorker(t, addr, "doomed")
	defer w.wc.close()
	m := w.takeLease()
	good, _ := EncodeResult(float64(trials[0].Seed) * 1.5)
	bad, _ := EncodeResult(999.25)
	if err := w.wc.send(formatResult(m.ID, job.ExpID, 0, good)); err != nil {
		t.Fatal(err)
	}
	if err := w.wc.send(formatResult(m.ID, job.ExpID, 0, bad)); err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err == nil || !strings.Contains(out.err.Error(), "not deterministic") {
		t.Fatalf("coordinator err = %v, want determinism violation", out.err)
	}
}

// TestCoordinateWorkerFailAborts: a deterministic trial error still
// kills the sweep with a single worker — the worker reports the
// chunk's failure, keeps serving, takes its own retry back once the
// avoidance hold (one TTL) expires, fails it again, and the second
// failure aborts. No operator intervention, no hang.
func TestCoordinateWorkerFailAborts(t *testing.T) {
	trials := makeTrials(10)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 10, LeaseTTL: 200 * time.Millisecond, Linger: 50 * time.Millisecond})
	defer cancel()

	attempts := 0
	resolver := func(expID, fingerprint string) (*WorkerJob, error) {
		return &WorkerJob{
			Trials: trials,
			Execute: func(ctx context.Context, sub []engine.Trial) (map[int]any, Stats, error) {
				attempts++
				return nil, Stats{}, fmt.Errorf("disk on fire")
			},
		}, nil
	}
	if _, err := RunWorker(context.Background(), addr, resolver, WorkerOptions{Name: "broken"}); err == nil ||
		!strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("failing worker err = %v, want the abort cause", err)
	}
	if attempts != 2 {
		t.Errorf("chunk executed %d times, want 2 (original + one retry)", attempts)
	}
	out := <-outcome
	if out.err == nil || !strings.Contains(out.err.Error(), "disk on fire") ||
		!strings.Contains(out.err.Error(), "already failed once") {
		t.Fatalf("coordinator err = %v, want the worker's failure after the burned retry", out.err)
	}
}

// TestWorkerContinuesAfterChunkFailure: a transient, host-local fault
// (first execution attempt fails, later ones succeed) costs one chunk
// retry: the worker reports FAIL, keeps serving the remaining chunks,
// takes the failed chunk back, completes it, and the sweep converges —
// while the worker itself exits nonzero so the flaky host is visible.
func TestWorkerContinuesAfterChunkFailure(t *testing.T) {
	trials := makeTrials(12)
	job := testJob(trials)
	// The short TTL lets the lone worker reclaim its failed chunk
	// quickly once the avoidance hold lapses.
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: 200 * time.Millisecond, Linger: time.Second})
	defer cancel()

	var executed atomic.Int64
	failedOnce := false
	resolver := func(expID, fingerprint string) (*WorkerJob, error) {
		return &WorkerJob{
			Trials: trials,
			Execute: func(ctx context.Context, sub []engine.Trial) (map[int]any, Stats, error) {
				if !failedOnce {
					failedOnce = true
					return nil, Stats{}, fmt.Errorf("transient host fault")
				}
				return Execute(ctx, job, sub, engine.Options{Workers: 2}, nil, noScratch,
					func(ctx context.Context, tr engine.Trial, r *rng.RNG, s struct{}) (any, error) {
						executed.Add(1)
						return trialFn(ctx, tr, r, s)
					})
			},
		}, nil
	}
	_, err := RunWorker(context.Background(), addr, resolver, WorkerOptions{Name: "flaky"})
	if err == nil || !strings.Contains(err.Error(), "failed 1 chunk") {
		t.Fatalf("flaky worker err = %v, want a completed-with-local-failures report", err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatalf("sweep aborted despite the successful retry: %v", out.err)
	}
	checkResults(t, trials, out.results)
	if executed.Load() != 12 {
		t.Errorf("executed %d trials, want 12 (the failed attempt ran none)", executed.Load())
	}
}

// TestCoordinateFailRetryDifferentWorker: one worker's trial failure
// does not abort the sweep — the chunk is re-leased, lands on the
// healthy worker (Acquire avoids the failer), and the sweep completes
// with every result intact.
func TestCoordinateFailRetryDifferentWorker(t *testing.T) {
	trials := makeTrials(8)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: time.Minute, Linger: time.Second})
	defer cancel()

	// The flaky worker takes the first chunk and reports a failure.
	flaky := dialDeadWorker(t, addr, "flaky")
	defer flaky.wc.close()
	m := flaky.takeLease()
	if err := flaky.wc.send(fmt.Sprintf("FAIL %d %s", m.ID, quoteMsg("transient host fault"))); err != nil {
		t.Fatal(err)
	}
	if line, err := flaky.wc.recv(); err != nil || line != "OK" {
		t.Fatalf("FAIL reply = %q, %v", line, err)
	}

	// The healthy worker finishes the sweep, including the re-leased
	// chunk, and the coordinator converges without an abort.
	var executed atomic.Int64
	stats, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed),
		WorkerOptions{Name: "healthy"})
	if err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatalf("sweep aborted despite the retry: %v", out.err)
	}
	checkResults(t, trials, out.results)
	if stats.Executed != 8 || executed.Load() != 8 {
		t.Errorf("healthy worker executed %d trials (stats %+v), want all 8", executed.Load(), stats)
	}
}

// TestCoordinateMisconfiguredWorkerAborts: a worker planned under a
// different config cannot resolve the fingerprint; the REFUSE aborts
// the sweep immediately — configuration skew is systematic, so it
// burns no chunk retries and wastes no TTLs.
func TestCoordinateMisconfiguredWorkerAborts(t *testing.T) {
	trials := makeTrials(6)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 3, LeaseTTL: time.Minute, Linger: 50 * time.Millisecond})
	defer cancel()

	resolver := func(expID, fingerprint string) (*WorkerJob, error) {
		return nil, fmt.Errorf("plan fingerprint mismatch: ran with -scale 0.5")
	}
	if _, err := RunWorker(context.Background(), addr, resolver, WorkerOptions{Name: "skewed"}); err == nil {
		t.Fatal("misconfigured worker returned nil error")
	}
	out := <-outcome
	if out.err == nil || !strings.Contains(out.err.Error(), "fingerprint mismatch") {
		t.Fatalf("coordinator err = %v, want the mismatch", out.err)
	}
}

// TestCoordinateEmptyAndCancelled covers the degenerate edges.
func TestCoordinateEmptyAndCancelled(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Coordinate(context.Background(), lis,
		[]CoordJob{{Job: Job{ExpID: "A", Fingerprint: "f"}, Trials: nil}}, CoordOptions{})
	if err != nil || len(res) != 1 || len(res[0]) != 0 {
		t.Fatalf("empty sweep: %v, %v", res, err)
	}

	lis, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	trials := makeTrials(5)
	if _, err := Coordinate(ctx, lis, []CoordJob{{Job: testJob(trials), Trials: trials}},
		CoordOptions{Linger: 10 * time.Millisecond}); err == nil {
		t.Fatal("cancelled coordinate returned nil error")
	}

	// Malformed jobs are rejected up front.
	lis, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	badTrials := makeTrials(3)
	badTrials[1].Index = 7
	if _, err := Coordinate(context.Background(), lis,
		[]CoordJob{{Job: Job{ExpID: "A", Fingerprint: "f"}, Trials: badTrials}}, CoordOptions{}); err == nil {
		t.Fatal("job with non-positional trials accepted")
	}
}
