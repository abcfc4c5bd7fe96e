package experiment

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"scalefree/internal/engine"
	"scalefree/internal/sweep"
)

// TestGoldenSharding is the subsystem's headline guarantee: for every
// registered experiment, executing the plan shard by shard (exactly as
// k separate processes would) and merging the shard files renders
// tables byte-identical to the single-process -workers 1 run, checked
// against its recorded digest. k=1 exercises the degenerate partition,
// k=2 the even/odd split, k=5 shards with uneven sizes (and, for small
// plans, possibly empty shards).
func TestGoldenSharding(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	cfg := smokeConfig
	for _, exp := range Registry() {
		t.Run(exp.ID, func(t *testing.T) {
			for _, k := range []int{1, 2, 5} {
				dir := t.TempDir()
				var paths []string
				for i := 0; i < k; i++ {
					spec := sweep.ShardSpec{Index: i, Count: k}
					path := filepath.Join(dir, exp.ShardFileName(spec))
					if _, err := exp.RunShard(context.Background(), cfg, spec, engine.Options{}, nil, path); err != nil {
						t.Fatalf("k=%d shard %d: %v", k, i, err)
					}
					paths = append(paths, path)
				}
				merged, err := exp.MergeShardFiles(cfg, paths)
				if err != nil {
					t.Fatalf("k=%d merge: %v", k, err)
				}
				checkSmokeDigest(t, exp, cfg, merged, fmt.Sprintf("merged k=%d", k))
			}
		})
	}
}

// TestMergeRejectsForeignConfig: shard files from one Config must not
// merge under another — the fingerprint pins seed and scale.
func TestMergeRejectsForeignConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	exp, _ := ByID("E4")
	cfg := Config{Seed: 2024, Scale: 0.05}
	dir := t.TempDir()
	spec := sweep.ShardSpec{Index: 0, Count: 1}
	path := filepath.Join(dir, exp.ShardFileName(spec))
	if _, err := exp.RunShard(context.Background(), cfg, spec, engine.Options{}, nil, path); err != nil {
		t.Fatal(err)
	}
	if _, err := exp.MergeShardFiles(Config{Seed: 9, Scale: 0.05}, []string{path}); err == nil {
		t.Error("merge under a different seed succeeded")
	}
	other, _ := ByID("E11")
	if _, err := other.MergeShardFiles(cfg, []string{path}); err == nil {
		t.Error("merge under a different experiment succeeded")
	}
}

// TestCacheResume interrupts a cached sweep mid-run, resumes it, and
// requires (a) tables matching the recorded digest and (b) zero
// re-executed trials for every entry that reached the cache before the
// interruption.
func TestCacheResume(t *testing.T) {
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
	if total < 8 {
		t.Fatalf("E4 plan too small to interrupt meaningfully: %d trials", total)
	}

	cache, err := sweep.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt after 5 completed trials.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const interruptAfter = 5
	opts := engine.Options{Workers: 1, Progress: func(p engine.Progress) {
		if p.Done == interruptAfter {
			cancel()
		}
	}}
	_, stats, err := exp.RunCached(ctx, cfg, opts, cache)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if stats.Executed != interruptAfter {
		t.Fatalf("interrupted run persisted %d trials, want %d", stats.Executed, interruptAfter)
	}

	// Resume: cached entries splice in without re-execution.
	tables, stats, err := exp.RunCached(context.Background(), cfg, engine.Options{Workers: 3}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != interruptAfter {
		t.Errorf("resume: %d cache hits, want %d", stats.CacheHits, interruptAfter)
	}
	if stats.Executed != total-interruptAfter {
		t.Errorf("resume: executed %d trials, want %d", stats.Executed, total-interruptAfter)
	}
	checkSmokeDigest(t, exp, cfg, tables, "resumed from cache")

	// A fully warm cache re-reduces without executing anything.
	tables, stats, err = exp.RunCached(context.Background(), cfg, engine.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.CacheHits != total {
		t.Errorf("warm run: stats %+v, want 0 executed / %d hits", stats, total)
	}
	checkSmokeDigest(t, exp, cfg, tables, "warm cache")
}

// TestShardResume re-runs completed shards on the cache they filled:
// every trial is a cache hit, nothing executes, and the rewritten
// files still merge to byte-identical tables. A shard run under a
// different seed addresses different entries and reuses none of them.
func TestShardResume(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	exp, _ := ByID("E4")
	cfg := smokeConfig
	cache, err := sweep.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const k = 2
	var paths []string
	for i := 0; i < k; i++ {
		spec := sweep.ShardSpec{Index: i, Count: k}
		path := filepath.Join(dir, exp.ShardFileName(spec))
		stats, err := exp.RunShard(context.Background(), cfg, spec, engine.Options{}, cache, path)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Executed == 0 {
			t.Fatalf("shard %d executed nothing", i)
		}
		paths = append(paths, path)
	}

	// Re-run over the warm cache: pure reuse.
	for i := 0; i < k; i++ {
		spec := sweep.ShardSpec{Index: i, Count: k}
		stats, err := exp.RunShard(context.Background(), cfg, spec, engine.Options{}, cache, paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if stats.Executed != 0 {
			t.Errorf("re-run shard %d re-executed %d trials", i, stats.Executed)
		}
		if stats.CacheHits == 0 {
			t.Errorf("re-run shard %d reused nothing", i)
		}
	}

	// A different seed is a different run: nothing stale is reused.
	spec := sweep.ShardSpec{Index: 0, Count: k}
	other := filepath.Join(t.TempDir(), exp.ShardFileName(spec))
	stats, err := exp.RunShard(context.Background(), Config{Seed: 1, Scale: 0.05}, spec, engine.Options{}, cache, other)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 0 {
		t.Errorf("shard under a different seed reused %d cached trials", stats.CacheHits)
	}

	merged, err := exp.MergeShardFiles(cfg, paths)
	if err != nil {
		t.Fatal(err)
	}
	checkSmokeDigest(t, exp, cfg, merged, "re-run shards merged")
}

// TestFingerprintDistinguishesConfigs guards the addressing scheme:
// scale, seed, and experiment all land in the fingerprint.
func TestFingerprintDistinguishesConfigs(t *testing.T) {
	exp, _ := ByID("E4")
	base, err := exp.Fingerprint(Config{Seed: 2024, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if fp, _ := exp.Fingerprint(Config{Seed: 2024, Scale: 0.05}); fp != base {
		t.Error("fingerprint not deterministic")
	}
	if fp, _ := exp.Fingerprint(Config{Seed: 7, Scale: 0.05}); fp == base {
		t.Error("fingerprint ignores seed")
	}
	if fp, _ := exp.Fingerprint(Config{Seed: 2024, Scale: 0.1}); fp == base {
		t.Error("fingerprint ignores scale")
	}
	other, _ := ByID("E11")
	if fp, _ := other.Fingerprint(Config{Seed: 2024, Scale: 0.05}); fp == base {
		t.Error("fingerprint ignores experiment")
	}
}
