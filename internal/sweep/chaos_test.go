package sweep

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/faultnet"
)

// The chaos battery: the coordinator protocol under seed-scripted
// network faults. Every test here drives real TCP over loopback with
// internal/faultnet wrapping the coordinator's listener, and asserts
// the tentpole guarantee — the assembled result set is exactly what a
// clean run produces, because every fault is absorbed by one of the
// recovery layers (worker reconnect+backoff, wire deadlines,
// disconnect revoke, TTL steal, content-addressed duplicate
// resolution).

// startCoordinatorOn is startCoordinator over a caller-built listener
// (a faultnet wrapper in these tests).
func startCoordinatorOn(t *testing.T, lis net.Listener, jobs []CoordJob, opts CoordOptions) (outcome chan coordOutcome, cancel context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	outcome = make(chan coordOutcome, 1)
	go func() {
		res, err := Coordinate(ctx, lis, jobs, opts)
		outcome <- coordOutcome{res, err}
	}()
	return outcome, cancel
}

// chaosWorkerOptions is tuned for fault-heavy loopback tests: fast
// reconnects, a deep retry budget, and a tight wire deadline so a
// blackholed read resolves in tens of milliseconds instead of seconds.
func chaosWorkerOptions(name string) WorkerOptions {
	return WorkerOptions{
		Name:          name,
		DialRetries:   60,
		ReconnectBase: 5 * time.Millisecond,
		ReconnectMax:  100 * time.Millisecond,
		IOTimeout:     300 * time.Millisecond,
	}
}

// TestChaosSweepConverges: three workers under sustained injected
// resets, delays, truncations, split writes, and partitions still
// assemble the exact result set. The fault budget caps the chaos so
// the run converges; the Injected assertion keeps the test honest — a
// profile that fired nothing would be testing the clean path.
func TestChaosSweepConverges(t *testing.T) {
	trials := makeTrials(40)
	job := testJob(trials)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flis := faultnet.Listen(inner, 20260808, faultnet.Faults{
		DelayProb:     0.15,
		DelayMax:      5 * time.Millisecond,
		ResetProb:     0.08,
		TruncateProb:  0.05,
		PartitionProb: 0.02,
		SplitWrites:   true,
		MaxFaults:     30,
	})
	outcome, cancel := startCoordinatorOn(t, flis,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 3, LeaseTTL: 300 * time.Millisecond, Linger: 500 * time.Millisecond})
	defer cancel()

	var executed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Individual workers may exhaust their retry budget against
			// a listener that closed after the sweep finished; the
			// outcome check below is the correctness assertion.
			_, err := RunWorker(context.Background(), addrOf(flis), countingResolver(job, trials, &executed),
				chaosWorkerOptions(fmt.Sprintf("chaos-%d", w)))
			if err != nil {
				t.Logf("worker %d exited: %v", w, err)
			}
		}(w)
	}

	out := <-outcome
	wg.Wait()
	if out.err != nil {
		t.Fatalf("sweep under chaos failed: %v (injected %d faults)", out.err, flis.Injected())
	}
	checkResults(t, trials, out.results)
	if flis.Injected() == 0 {
		t.Error("fault profile injected nothing; the chaos run degenerated to the clean path")
	}
	if executed.Load() < int64(len(trials)) {
		t.Errorf("executed %d < %d trials yet the sweep converged", executed.Load(), len(trials))
	}
}

func addrOf(l net.Listener) string { return l.Addr().String() }

// TestChaosScriptedMidSweepPartition: exactly one fault — a one-way
// partition scripted to fire after the handshake, i.e. mid-sweep. The
// worker's wire deadline detects the blackhole, the session tears
// down and reconnects, the coordinator's TTL steal requeues the
// partitioned chunk, and the sweep converges with re-execution
// bounded to that single chunk.
func TestChaosScriptedMidSweepPartition(t *testing.T) {
	trials := makeTrials(12)
	job := testJob(trials)
	const chunkSize = 4
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flis := faultnet.Listen(inner, 7, faultnet.Faults{
		PartitionProb: 1,
		SkipOps:       6, // let HELLO/OK/NEXT/LEASE through; partition mid-sweep
		MaxFaults:     1,
	})
	outcome, cancel := startCoordinatorOn(t, flis,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: chunkSize, LeaseTTL: 200 * time.Millisecond, Linger: 300 * time.Millisecond})
	defer cancel()

	var executed atomic.Int64
	stats, err := RunWorker(context.Background(), addrOf(flis),
		countingResolver(job, trials, &executed), chaosWorkerOptions("partitioned"))
	if err != nil {
		t.Fatalf("worker did not survive the partition: %v", err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
	if flis.Injected() != 1 {
		t.Errorf("injected %d faults, want exactly the scripted partition", flis.Injected())
	}
	// Re-execution is bounded exactly as in the kill test: at most the
	// chunk in flight when the partition swallowed its delivery.
	if got := executed.Load(); got < int64(len(trials)) || got > int64(len(trials)+chunkSize) {
		t.Errorf("executed %d trials, want within [%d,%d]", got, len(trials), len(trials)+chunkSize)
	}
	_ = stats
}

// TestWorkerStartsBeforeCoordinator is the satellite regression: a
// worker whose first DialContext fails (the coordinator is merely
// slow to start) must keep retrying with backoff instead of exiting —
// the historical behaviour was an immediate fatal return.
func TestWorkerStartsBeforeCoordinator(t *testing.T) {
	trials := makeTrials(8)
	job := testJob(trials)

	// Reserve an address, then free it so the worker's first dials
	// fail against nothing listening.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	var executed atomic.Int64
	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed),
			chaosWorkerOptions("early-bird"))
		workerErr <- err
	}()

	// Give the worker time to fail at least one dial, then bring the
	// coordinator up on the reserved address.
	time.Sleep(50 * time.Millisecond)
	var lis net.Listener
	for deadline := time.Now().Add(2 * time.Second); ; {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	outcome, cancel := startCoordinatorOn(t, lis,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: time.Second})
	defer cancel()

	if err := <-workerErr; err != nil {
		t.Fatalf("early worker err = %v, want a finished sweep after reconnecting", err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
	if executed.Load() != int64(len(trials)) {
		t.Errorf("executed %d trials, want %d", executed.Load(), len(trials))
	}
}

// TestWorkerReconnectsAfterCoordinatorRestart: the coordinator dies
// mid-sweep (cancelled abruptly, connections reset) and comes back on
// the same address; the worker rides its backoff loop through the
// outage and finishes the restarted sweep.
func TestWorkerReconnectsAfterCoordinatorRestart(t *testing.T) {
	trials := makeTrials(8)
	job := testJob(trials)
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis1.Addr().String()
	outcome1, cancel1 := startCoordinatorOn(t, lis1,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: 300 * time.Millisecond, Linger: 10 * time.Millisecond})
	defer cancel1()

	// The first chunk's execution parks until its context dies — which
	// happens when coordinator #1 is cancelled and the heartbeat
	// connection drops. Later chunks (after the restart) run normally.
	var parked atomic.Bool
	var executed atomic.Int64
	parkedOnce := make(chan struct{}, 1)
	resolver := func(expID, fingerprint string) (*WorkerJob, error) {
		return &WorkerJob{
			Trials: trials,
			Execute: func(ctx context.Context, sub []engine.Trial) (map[int]any, Stats, error) {
				if parked.CompareAndSwap(false, true) {
					parkedOnce <- struct{}{}
					<-ctx.Done()
					return nil, Stats{}, ctx.Err()
				}
				res := map[int]any{}
				for _, tr := range sub {
					executed.Add(1)
					res[tr.Index] = float64(tr.Seed) * 1.5
				}
				return res, Stats{Executed: len(sub)}, nil
			},
		}, nil
	}
	workerErr := make(chan error, 1)
	go func() {
		opts := chaosWorkerOptions("phoenix")
		opts.Heartbeat = 50 * time.Millisecond
		_, err := RunWorker(context.Background(), addr, resolver, opts)
		workerErr <- err
	}()

	<-parkedOnce // the worker holds a lease and is executing
	cancel1()    // coordinator #1 dies abruptly
	if out := <-outcome1; out.err == nil {
		t.Fatal("cancelled coordinator #1 reported success")
	}

	// Restart on the same address while the worker is backing off.
	var lis2 net.Listener
	for deadline := time.Now().Add(2 * time.Second); ; {
		lis2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	outcome2, cancel2 := startCoordinatorOn(t, lis2,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: time.Second})
	defer cancel2()

	if err := <-workerErr; err != nil {
		t.Fatalf("worker err = %v, want a finished sweep after the coordinator restart", err)
	}
	out := <-outcome2
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
}

// Auth matrix: matched keys run; every mismatched configuration dies
// at the handshake with a diagnosable error on both ends, without
// burning reconnect retries on a failure that cannot heal.
func TestAuthMatchedKeysSweepCompletes(t *testing.T) {
	trials := makeTrials(8)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: time.Second, AuthKey: "correct horse"})
	defer cancel()

	var executed atomic.Int64
	opts := WorkerOptions{Name: "keyed", AuthKey: "correct horse"}
	if _, err := RunWorker(context.Background(), addr, countingResolver(job, trials, &executed), opts); err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
}

func TestAuthRejectionMatrix(t *testing.T) {
	cases := []struct {
		name       string
		coordKey   string
		workerKey  string
		wantWorker string // substring of the worker's fatal error
		wantLog    string // substring of a coordinator log line ("" = none expected)
	}{
		{"wrong key", "correct horse", "battery staple",
			"shared-key proof", "proof mismatch"},
		{"keyless worker", "correct horse", "",
			"coordinator rejected handshake", "no nonce offered"},
		{"keyless coordinator", "", "correct horse",
			"coordinator has no key", "coordinator has no key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trials := makeTrials(4)
			job := testJob(trials)
			var logMu sync.Mutex
			var logs []string
			addr, outcome, cancel := startCoordinator(t,
				[]CoordJob{{Job: job, Trials: trials}},
				CoordOptions{ChunkSize: 4, LeaseTTL: time.Second, AuthKey: tc.coordKey,
					Log: func(format string, args ...any) {
						logMu.Lock()
						logs = append(logs, fmt.Sprintf(format, args...))
						logMu.Unlock()
					}})
			defer cancel()

			start := time.Now()
			_, err := RunWorker(context.Background(), addr, countingResolver(job, trials, new(atomic.Int64)),
				WorkerOptions{Name: "mismatched", AuthKey: tc.workerKey})
			if err == nil || !strings.Contains(err.Error(), tc.wantWorker) {
				t.Fatalf("worker err = %v, want %q", err, tc.wantWorker)
			}
			// Handshake rejection is fatal, not retriable: no backoff
			// loop means the worker fails fast.
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("rejected worker took %v; a handshake rejection must not burn reconnect retries", elapsed)
			}
			if tc.wantLog != "" {
				logMu.Lock()
				joined := strings.Join(logs, "\n")
				logMu.Unlock()
				if !strings.Contains(joined, tc.wantLog) {
					t.Errorf("coordinator logs %q lack %q — the rejection must be diagnosable on the coordinator too", joined, tc.wantLog)
				}
			}

			// The coordinator survives the rejection; a correctly
			// configured worker still completes the sweep (keyed only
			// when the coordinator holds a key).
			if _, err := RunWorker(context.Background(), addr, countingResolver(job, trials, new(atomic.Int64)),
				WorkerOptions{Name: "healthy", AuthKey: tc.coordKey}); err != nil {
				t.Fatalf("healthy worker after rejection: %v", err)
			}
			out := <-outcome
			if out.err != nil {
				t.Fatal(out.err)
			}
			checkResults(t, trials, out.results)
		})
	}
}

// TestMixedVersionRejectedAtHandshake: an SFCOORD2-speaking worker
// dies at HELLO with the version named, not on a confusing later verb.
func TestMixedVersionRejectedAtHandshake(t *testing.T) {
	trials := makeTrials(4)
	job := testJob(trials)
	addr, outcome, cancel := startCoordinator(t,
		[]CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: 4, LeaseTTL: time.Second})
	defer cancel()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := newWireConn(conn, 0)
	if err := wc.send("HELLO SFCOORD2 old-binary"); err != nil {
		t.Fatal(err)
	}
	line, err := wc.recv()
	if err != nil || !strings.HasPrefix(line, "ERR") || !strings.Contains(line, protoVersion) {
		t.Fatalf("old-version HELLO reply = %q, %v; want ERR naming %s", line, err, protoVersion)
	}
	wc.close()

	// And a verb before HELLO is refused — the handshake (and with it
	// authentication) cannot be skipped.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc2 := newWireConn(conn2, 0)
	if err := wc2.send("NEXT"); err != nil {
		t.Fatal(err)
	}
	if line, err := wc2.recv(); err != nil || !strings.HasPrefix(line, "ERR") {
		t.Fatalf("pre-HELLO NEXT reply = %q, %v; want ERR", line, err)
	}
	wc2.close()

	if _, err := RunWorker(context.Background(), addr,
		countingResolver(job, trials, new(atomic.Int64)), WorkerOptions{Name: "current"}); err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkResults(t, trials, out.results)
}
