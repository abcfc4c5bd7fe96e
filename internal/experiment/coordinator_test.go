package experiment

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/faultnet"
	"scalefree/internal/sweep"
)

// startSweepCoordinator serves the selected experiments on loopback
// and returns the dial address plus the eventual outcome.
func startSweepCoordinator(t *testing.T, selected []Experiment, cfg Config, opts sweep.CoordOptions) (string, chan struct {
	tables [][]Table
	err    error
}) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	outcome := make(chan struct {
		tables [][]Table
		err    error
	}, 1)
	go func() {
		tables, err := CoordinateSweep(context.Background(), selected, cfg, lis, opts)
		outcome <- struct {
			tables [][]Table
			err    error
		}{tables, err}
	}()
	return lis.Addr().String(), outcome
}

// TestGoldenCoordinatorKillReassign is the tentpole guarantee: a
// coordinator-driven sweep in which a worker dies mid-run — its chunk
// leased, partially executed, never delivered — renders tables
// matching the recorded digest of the single-process -workers 1 run,
// and the only re-executed trials are the dead worker's unpersisted
// chunk. E4 exercises the historical plans; E12 and E13 extend the
// same guarantee to the registry-driven model batteries.
func TestGoldenCoordinatorKillReassign(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	for _, id := range []string{"E4", "E12", "E13"} {
		t.Run(id, func(t *testing.T) {
			exp, _ := ByID(id)
			cfg := smokeConfig
			plan, err := exp.Plan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			total := len(plan.Trials)
			if total < 6 {
				t.Fatalf("%s plan too small to kill meaningfully: %d trials", id, total)
			}

			const chunkSize = 2
			addr, outcome := startSweepCoordinator(t, []Experiment{exp}, cfg,
				sweep.CoordOptions{ChunkSize: chunkSize, LeaseTTL: time.Minute, Linger: time.Second})

			// The doomed worker: executes its first chunk, then its
			// context is cancelled before any result is streamed — the
			// process equivalent of a kill -9 between computation and
			// delivery. Its connection drop revokes the lease
			// immediately.
			dieCtx, die := context.WithCancel(context.Background())
			defer die()
			deadExecuted := 0
			deadOpts := engine.Options{Workers: 1, Progress: func(p engine.Progress) {
				deadExecuted++
				if deadExecuted == chunkSize {
					die()
				}
			}}
			_, err = SweepWorker(dieCtx, []Experiment{exp}, cfg, addr, deadOpts, nil, sweep.WorkerOptions{Name: "doomed"})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("doomed worker: err = %v, want context.Canceled", err)
			}
			if deadExecuted != chunkSize {
				t.Fatalf("doomed worker executed %d trials, want %d", deadExecuted, chunkSize)
			}

			// The surviving worker steals the forfeited chunk and
			// finishes the sweep.
			stats, err := SweepWorker(context.Background(), []Experiment{exp}, cfg, addr,
				engine.Options{Workers: 2}, nil, sweep.WorkerOptions{Name: "survivor"})
			if err != nil {
				t.Fatal(err)
			}
			out := <-outcome
			if out.err != nil {
				t.Fatal(out.err)
			}
			checkSmokeDigest(t, exp, cfg, out.tables[0], "coordinated after a worker kill")
			// The survivor runs every trial exactly once — total work
			// across both workers exceeds the plan by exactly the dead
			// worker's undelivered chunk, never more.
			if stats.Executed != total {
				t.Errorf("survivor executed %d trials, want %d (stolen chunk re-runs, nothing else repeats)", stats.Executed, total)
			}
		})
	}
}

// TestCoordinatorSharedCacheBoundsLostWork: with a shared trial cache,
// even the dead worker's executed-but-undelivered chunk is not
// recomputed — the thief's cache lookup satisfies it, so the sweep
// re-executes zero trials.
func TestCoordinatorSharedCacheBoundsLostWork(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	exp, _ := ByID("E4")
	cfg := smokeConfig
	plan, err := exp.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := len(plan.Trials)

	cache, err := sweep.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 2
	addr, outcome := startSweepCoordinator(t, []Experiment{exp}, cfg,
		sweep.CoordOptions{ChunkSize: chunkSize, LeaseTTL: time.Minute, Linger: time.Second})

	dieCtx, die := context.WithCancel(context.Background())
	defer die()
	deadExecuted := 0
	deadOpts := engine.Options{Workers: 1, Progress: func(p engine.Progress) {
		deadExecuted++
		if deadExecuted == chunkSize {
			die()
		}
	}}
	if _, err := SweepWorker(dieCtx, []Experiment{exp}, cfg, addr, deadOpts, cache, sweep.WorkerOptions{Name: "doomed"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("doomed worker: err = %v, want context.Canceled", err)
	}

	stats, err := SweepWorker(context.Background(), []Experiment{exp}, cfg, addr,
		engine.Options{Workers: 2}, cache, sweep.WorkerOptions{Name: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkSmokeDigest(t, exp, cfg, out.tables[0], "coordinated with a shared cache")
	// The doomed worker persisted its chunk before dying, so the
	// survivor cache-hits those trials instead of re-running them:
	// zero trials execute twice anywhere in the sweep.
	if stats.Executed != total-deadExecuted || stats.CacheHits != deadExecuted {
		t.Errorf("survivor stats %+v, want %d executed / %d cache hits", stats, total-deadExecuted, deadExecuted)
	}
}

// TestCoordinatorMultiExperimentGolden: several experiments and
// several concurrent workers through the coordinator still render,
// per experiment, tables matching the serial run's recorded digest.
func TestCoordinatorMultiExperimentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	cfg := smokeConfig
	var selected []Experiment
	for _, id := range []string{"E4", "E5"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		selected = append(selected, e)
	}
	addr, outcome := startSweepCoordinator(t, selected, cfg,
		sweep.CoordOptions{ChunkSize: 3, LeaseTTL: time.Minute, Linger: time.Second})
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			_, err := SweepWorker(context.Background(), selected, cfg, addr,
				engine.Options{Workers: 2}, nil, sweep.WorkerOptions{Name: fmt.Sprintf("w%d", w)})
			errs <- err
		}(w)
	}
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	for i, e := range selected {
		checkSmokeDigest(t, e, cfg, out.tables[i], "coordinated by two workers")
	}
}

// TestGoldenChaosSweep is the tentpole guarantee end to end at the
// experiment layer: a coordinated run whose every connection suffers
// injected delays, resets, truncations, split writes, and partitions
// still renders tables matching the single-process run's recorded
// digest. The Injected assertion keeps the chaos honest.
func TestGoldenChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	exp, _ := ByID("E4")
	cfg := smokeConfig

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
		tables, err := CoordinateSweep(context.Background(), []Experiment{exp}, cfg, flis,
			sweep.CoordOptions{ChunkSize: 3, LeaseTTL: 2 * time.Second, Linger: time.Second})
		outcome <- struct {
			tables [][]Table
			err    error
		}{tables, err}
	}()

	wopts := sweep.WorkerOptions{
		DialRetries:   60,
		ReconnectBase: 5 * time.Millisecond,
		ReconnectMax:  100 * time.Millisecond,
		IOTimeout:     time.Second,
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := wopts
			opts.Name = fmt.Sprintf("chaos-%d", w)
			// A worker may exhaust its retries against the closed
			// listener after the sweep completes; the outcome check is
			// the correctness assertion.
			if _, err := SweepWorker(context.Background(), []Experiment{exp}, cfg, flis.Addr().String(),
				engine.Options{Workers: 2}, nil, opts); err != nil {
				t.Logf("worker %d exited: %v", w, err)
			}
		}(w)
	}
	out := <-outcome
	wg.Wait()
	if out.err != nil {
		t.Fatalf("chaos sweep failed: %v (injected %d faults)", out.err, flis.Injected())
	}
	checkSmokeDigest(t, exp, cfg, out.tables[0], "coordinated under chaos")
	if flis.Injected() == 0 {
		t.Error("fault profile injected nothing; the chaos run degenerated to the clean path")
	}
}

// TestGoldenCoordinatorCacheResume closes the crash-recovery loop on
// E4. A coordinator cancelled after its first accepted result leaves
// exactly the results it accepted in its cache. A restart on that
// cache, served by a fresh worker with no cache, executes only the
// missing trials; a second restart finishes with no worker; both
// render tables matching the serial run's recorded digest. A plain
// RunCached on the same cache then executes nothing: every mode reads
// one entry format.
func TestGoldenCoordinatorCacheResume(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	exp, _ := ByID("E4")
	selected := []Experiment{exp}
	cfg := smokeConfig
	plan, err := exp.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := len(plan.Trials)
	cache, err := sweep.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var accepted atomic.Int64
	outcome := make(chan error, 1)
	go func() {
		_, err := CoordinateSweep(ctx, selected, cfg, lis, sweep.CoordOptions{
			ChunkSize: 2, LeaseTTL: time.Minute, Linger: 200 * time.Millisecond, Cache: cache,
			OnResult: func(string, string, engine.Trial, int) {
				accepted.Add(1)
				cancel()
			}})
		outcome <- err
	}()
	if _, err := SweepWorker(context.Background(), selected, cfg, lis.Addr().String(),
		engine.Options{Workers: 1}, nil, sweep.WorkerOptions{Name: "doomed", DialRetries: -1}); err == nil {
		t.Error("worker reported success for a cancelled sweep")
	}
	if err := <-outcome; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled coordinator err = %v, want context.Canceled", err)
	}
	k := int(accepted.Load())
	entries, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	if entries != k || k == 0 || k >= total {
		t.Fatalf("cache holds %d entries after %d accepted results of %d trials; want them equal, and the cancellation mid-sweep",
			entries, k, total)
	}

	addr, restarted := startSweepCoordinator(t, selected, cfg,
		sweep.CoordOptions{ChunkSize: 2, LeaseTTL: time.Minute, Cache: cache})
	stats, err := SweepWorker(context.Background(), selected, cfg, addr,
		engine.Options{Workers: 2}, nil, sweep.WorkerOptions{Name: "fresh"})
	if err != nil {
		t.Fatal(err)
	}
	out := <-restarted
	if out.err != nil {
		t.Fatal(out.err)
	}
	if stats.Executed != total-k {
		t.Errorf("restart's worker executed %d trials, want the %d missing ones", stats.Executed, total-k)
	}
	checkSmokeDigest(t, exp, cfg, out.tables[0], "coordinator restarted on its cache")

	lis, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := CoordinateSweep(context.Background(), selected, cfg, lis, sweep.CoordOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	checkSmokeDigest(t, exp, cfg, tables[0], "coordinator on a complete cache, no worker")

	plain, runStats, err := exp.RunCached(context.Background(), cfg, engine.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if runStats.Executed != 0 || runStats.CacheHits != total {
		t.Errorf("plain run on the coordinator's cache: stats %+v, want 0 executed / %d hits", runStats, total)
	}
	checkSmokeDigest(t, exp, cfg, plain, "plain run on the coordinator's cache")
}
