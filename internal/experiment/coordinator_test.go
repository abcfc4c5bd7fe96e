package experiment

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
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

// TestDrainedSweepResumesWithZeroReexecution closes the crash-recovery
// loop: a cancelled coordinator drains its in-flight chunk, persists
// completed results as a 1-of-1 shard file via DrainToDir, and the
// follow-up `-shard 1/1 -resume` run reuses every drained trial as a
// cache hit — executing only the missing remainder — before the merged
// tables come out matching the serial run's recorded digest.
func TestDrainedSweepResumesWithZeroReexecution(t *testing.T) {
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

	dir := t.TempDir()
	drain, err := DrainToDir([]Experiment{exp}, cfg, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outcome := make(chan error, 1)
	go func() {
		_, err := CoordinateSweep(ctx, []Experiment{exp}, cfg, lis,
			sweep.CoordOptions{ChunkSize: 2, LeaseTTL: time.Minute, Linger: 200 * time.Millisecond,
				DrainTimeout: 30 * time.Second, Drain: drain, Log: t.Logf})
		outcome <- err
	}()

	// Cancel the coordinator after the worker's first trial: the chunk
	// in flight lands during the drain, everything after it never
	// leases.
	fired := false
	wopts := engine.Options{Workers: 1, Progress: func(p engine.Progress) {
		if !fired {
			fired = true
			cancel()
		}
	}}
	if _, err := SweepWorker(context.Background(), []Experiment{exp}, cfg, lis.Addr().String(),
		wopts, nil, sweep.WorkerOptions{Name: "drained", DialRetries: -1}); err == nil {
		t.Error("worker reported success for a cancelled sweep")
	}
	if err := <-outcome; !errors.Is(err, context.Canceled) {
		t.Fatalf("drained coordinator err = %v, want context.Canceled", err)
	}

	shardPath := filepath.Join(dir, exp.ShardFileName(sweep.ShardSpec{Index: 0, Count: 1}))
	_, entries, err := sweep.ReadShardFile(shardPath)
	if err != nil {
		t.Fatalf("drain left no readable shard file: %v", err)
	}
	drained := len(entries)
	if drained == 0 || drained >= total {
		t.Fatalf("drain persisted %d of %d trials; the cancellation must land mid-sweep", drained, total)
	}

	// The resume run executes exactly the missing trials; every drained
	// trial is a cache hit, none re-executes.
	stats, err := exp.RunShard(context.Background(), cfg, sweep.ShardSpec{Index: 0, Count: 1},
		engine.Options{Workers: 2}, nil, shardPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != drained || stats.Executed != total-drained {
		t.Errorf("resume stats %+v, want %d cache hits / %d executed", stats, drained, total-drained)
	}
	tables, err := exp.MergeShardFiles(cfg, []string{shardPath})
	if err != nil {
		t.Fatal(err)
	}
	checkSmokeDigest(t, exp, cfg, tables, "drained and resumed")
}
