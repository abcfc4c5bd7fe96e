package sweep

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/rng"
)

// makeTrials builds a synthetic plan of n trials whose pure result is
// a deterministic function of the trial seed.
func makeTrials(n int) []engine.Trial {
	trials := make([]engine.Trial, n)
	for i := range trials {
		trials[i] = engine.Trial{Index: i, Key: fmt.Sprintf("t/%d", i), Seed: uint64(1000 + i)}
	}
	return trials
}

func trialFn(_ context.Context, t engine.Trial, _ *rng.RNG, _ struct{}) (any, error) {
	return float64(t.Seed) * 1.5, nil
}

func noScratch() struct{} { return struct{}{} }

func testJob(trials []engine.Trial) Job {
	return Job{ExpID: "ETEST", Fingerprint: Fingerprint("ETEST", "seed=1/scale=1", trials)}
}

func TestParseShardSpec(t *testing.T) {
	good := map[string]ShardSpec{
		"1/1": {0, 1},
		"1/4": {0, 4},
		"4/4": {3, 4},
	}
	for in, want := range good {
		got, err := ParseShardSpec(in)
		if err != nil || got != want {
			t.Errorf("ParseShardSpec(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() != in {
			t.Errorf("ShardSpec(%q).String() = %q", in, got.String())
		}
	}
	for _, in := range []string{"", "1", "0/4", "5/4", "1/0", "-1/4", "a/b", "1/4/2"} {
		if _, err := ParseShardSpec(in); err == nil {
			t.Errorf("ParseShardSpec(%q) succeeded", in)
		}
	}
}

func TestShardFilterPartitions(t *testing.T) {
	trials := makeTrials(23)
	for _, k := range []int{1, 2, 5, 23, 40} {
		seen := map[int]int{}
		for i := 0; i < k; i++ {
			for _, tr := range (ShardSpec{Index: i, Count: k}).Filter(trials) {
				seen[tr.Index]++
			}
		}
		if len(seen) != len(trials) {
			t.Errorf("k=%d: shards cover %d of %d trials", k, len(seen), len(trials))
		}
		for idx, c := range seen {
			if c != 1 {
				t.Errorf("k=%d: trial %d owned by %d shards", k, idx, c)
			}
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	trials := makeTrials(5)
	const params = "seed=1/scale=1"
	base := Fingerprint("E1", params, trials)
	if Fingerprint("E1", params, trials) != base {
		t.Error("fingerprint not deterministic")
	}
	if Fingerprint("E2", params, trials) == base {
		t.Error("fingerprint ignores experiment ID")
	}
	if Fingerprint("E1", "seed=1/scale=0.5", trials) == base {
		t.Error("fingerprint ignores params")
	}
	mut := makeTrials(5)
	mut[3].Seed++
	if Fingerprint("E1", params, mut) == base {
		t.Error("fingerprint ignores trial seeds")
	}
	mut = makeTrials(5)
	mut[0].Key = "other"
	if Fingerprint("E1", params, mut) == base {
		t.Error("fingerprint ignores trial keys")
	}
	if Fingerprint("E1", params, makeTrials(4)) == base {
		t.Error("fingerprint ignores trial count")
	}
}

func TestCachePutGet(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	trials := makeTrials(3)
	job := testJob(trials)
	key := CacheKey(job.ExpID, job.Fingerprint, trials[0])
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(key, job.Fingerprint, 42.5); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(key)
	if !ok || v != 42.5 {
		t.Fatalf("Get = %v, %v; want 42.5, true", v, ok)
	}
	// A corrupt entry is a miss, not an error.
	if err := os.WriteFile(c.path(key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("hit on corrupt entry")
	}
	if err := c.Put(key, job.Fingerprint, 7.0); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(key); !ok || v != 7.0 {
		t.Error("overwrite of corrupt entry failed")
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1", n, err)
	}
}

// TestCacheRejectsMalformedKeys: keys CacheKey cannot produce — too
// short for the fan-out split (which used to panic via key[:2]), or
// not hex at all — must be Get misses and Put errors, never crashes
// or stray files.
func TestCacheRejectsMalformedKeys(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "a", "ab", "ABCDEF", "..", "../../escape", "0g11", "deadbeef/x"} {
		if _, ok := c.Get(key); ok {
			t.Errorf("Get(%q) hit", key)
		}
		if err := c.Put(key, "fp", 1.0); err == nil {
			t.Errorf("Put(%q) succeeded", key)
		}
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Errorf("malformed puts left %d entries (%v)", n, err)
	}
}

// TestCacheLenSkipsTempFiles: a crashed writer's temp leftovers are
// not entries and must not inflate Len.
func TestCacheLenSkipsTempFiles(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	trials := makeTrials(1)
	job := testJob(trials)
	key := CacheKey(job.ExpID, job.Fingerprint, trials[0])
	if err := c.Put(key, job.Fingerprint, 3.5); err != nil {
		t.Fatal(err)
	}
	crash := filepath.Join(c.Dir(), key[:2], tempPrefix+key+"-1234")
	if err := os.WriteFile(crash, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1 (temp files are not entries)", n, err)
	}
}

// TestOpenCacheReapsStaleTemps: reopening a cache removes temp files
// old enough to be crash orphans, but leaves fresh ones (a concurrent
// writer's in-flight rename) alone.
func TestOpenCacheReapsStaleTemps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(sub, tempPrefix+"old-111")
	fresh := filepath.Join(sub, tempPrefix+"new-222")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tempReapAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived OpenCache")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file was reaped")
	}
	_ = c
}

// TestCacheGetWritesNothing: a lookup only reads. A hit on an entry
// backdated an hour, and a miss, leave that entry's mtime and the
// cache's directory listing (every path, size and mtime) as they were.
func TestCacheGetWritesNothing(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	trials := makeTrials(2)
	job := testJob(trials)
	key := CacheKey(job.ExpID, job.Fingerprint, trials[0])
	if err := c.Put(key, job.Fingerprint, 42.5); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(c.path(key), old, old); err != nil {
		t.Fatal(err)
	}
	before := cacheListing(t, c.Dir())
	if v, ok := c.Get(key); !ok || v != 42.5 {
		t.Fatalf("Get = %v, %v; want 42.5, true", v, ok)
	}
	if _, ok := c.Get(CacheKey(job.ExpID, job.Fingerprint, trials[1])); ok {
		t.Fatal("hit on an entry never stored")
	}
	info, err := os.Stat(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().Equal(old) {
		t.Errorf("Get moved the entry's mtime from %v to %v", old, info.ModTime())
	}
	if after := cacheListing(t, c.Dir()); !reflect.DeepEqual(before, after) {
		t.Errorf("Get changed the cache directory:\nbefore %v\nafter  %v", before, after)
	}
}

// cacheListing maps every path under dir, directories included, to its
// size and mtime.
func cacheListing(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = fmt.Sprintf("%d %s", info.Size(), info.ModTime().Format(time.RFC3339Nano))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCacheGCByFingerprint: GC removes exactly one fingerprint's
// entries plus temp and corrupt files, leaving other runs' entries
// usable.
func TestCacheGCByFingerprint(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	trials := makeTrials(6)
	keep := Job{ExpID: "ETEST", Fingerprint: Fingerprint("ETEST", "seed=1/scale=1", trials)}
	drop := Job{ExpID: "ETEST", Fingerprint: Fingerprint("ETEST", "seed=2/scale=1", trials)}
	for _, tr := range trials[:4] {
		if err := storeTrial(c, keep.ExpID, keep.Fingerprint, tr, float64(tr.Seed)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range trials {
		if err := storeTrial(c, drop.ExpID, drop.Fingerprint, tr, float64(tr.Seed)); err != nil {
			t.Fatal(err)
		}
	}
	// A temp leftover and a corrupt entry ride along.
	corruptKey := "00" + strings.Repeat("ab", 31)
	if err := os.MkdirAll(filepath.Join(c.Dir(), "00"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), "00", corruptKey), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), "00", tempPrefix+"left-1"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	stats, err := c.GC(drop.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 6 || stats.Corrupt != 1 || stats.Temps != 1 || stats.Bytes == 0 {
		t.Errorf("GC stats = %+v, want 6 entries / 1 corrupt / 1 temp", stats)
	}
	if n, err := c.Len(); err != nil || n != 4 {
		t.Errorf("Len after GC = %d, %v; want 4", n, err)
	}
	for _, tr := range trials[:4] {
		if v, ok := lookupTrial(c, keep.ExpID, keep.Fingerprint, tr); !ok || v != float64(tr.Seed) {
			t.Errorf("kept entry for trial %d unreadable after GC: %v, %v", tr.Index, v, ok)
		}
	}
	for _, tr := range trials {
		if _, ok := lookupTrial(c, drop.ExpID, drop.Fingerprint, tr); ok {
			t.Errorf("dropped fingerprint still hits for trial %d", tr.Index)
		}
	}
	if _, err := c.GC(""); err == nil {
		t.Error("GC with empty fingerprint succeeded")
	}
}

func TestExecuteCacheLifecycle(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trials := makeTrials(17)
	job := testJob(trials)
	ctx := context.Background()

	var calls atomic.Int64
	counted := func(ctx context.Context, tr engine.Trial, r *rng.RNG, s struct{}) (any, error) {
		calls.Add(1)
		return trialFn(ctx, tr, r, s)
	}

	cold, stats, err := Execute(ctx, job, trials, engine.Options{Workers: 4}, cache, noScratch, counted)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 17 || stats.CacheHits != 0 || calls.Load() != 17 {
		t.Fatalf("cold run: stats %+v, calls %d", stats, calls.Load())
	}

	calls.Store(0)
	warm, stats, err := Execute(ctx, job, trials, engine.Options{Workers: 4}, cache, noScratch, counted)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.CacheHits != 17 {
		t.Fatalf("warm run: stats %+v", stats)
	}
	if calls.Load() != 0 {
		t.Fatalf("warm run re-executed %d trials", calls.Load())
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("cached results differ from computed results")
	}

	// A different fingerprint misses everything: cached results are
	// pinned to the plan that produced them.
	other := Job{ExpID: job.ExpID, Fingerprint: "0000"}
	calls.Store(0)
	_, stats, err = Execute(ctx, other, trials, engine.Options{Workers: 2}, cache, noScratch, counted)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 0 || calls.Load() != 17 {
		t.Errorf("fingerprint change still hit the cache: %+v", stats)
	}
}

func TestExecuteCancellationPersists(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trials := makeTrials(30)
	job := testJob(trials)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel once a third of the trials have completed; the engine
	// drains the rest without running them.
	var calls atomic.Int64
	fn := func(ctx context.Context, tr engine.Trial, r *rng.RNG, s struct{}) (any, error) {
		if calls.Add(1) == 10 {
			cancel()
		}
		return trialFn(ctx, tr, r, s)
	}
	_, stats, err := Execute(ctx, job, trials, engine.Options{Workers: 1}, cache, noScratch, fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Executed != 10 {
		t.Fatalf("interrupted run persisted %d trials, want 10", stats.Executed)
	}

	// Resume: only the remainder executes, and the union is complete.
	var resumed atomic.Int64
	counted := func(ctx context.Context, tr engine.Trial, r *rng.RNG, s struct{}) (any, error) {
		resumed.Add(1)
		return trialFn(ctx, tr, r, s)
	}
	results, stats, err := Execute(context.Background(), job, trials, engine.Options{Workers: 3}, cache, noScratch, counted)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 10 || stats.Executed != 20 || resumed.Load() != 20 {
		t.Fatalf("resume: stats %+v, ran %d", stats, resumed.Load())
	}
	if len(results) != 30 {
		t.Fatalf("resume produced %d results", len(results))
	}
	for _, tr := range trials {
		if results[tr.Index] != float64(tr.Seed)*1.5 {
			t.Fatalf("trial %d: wrong result %v", tr.Index, results[tr.Index])
		}
	}
}

func TestShardFileRoundTripAndMerge(t *testing.T) {
	dir := t.TempDir()
	trials := makeTrials(11)
	job := testJob(trials)
	ctx := context.Background()

	const k = 3
	var paths []string
	for i := 0; i < k; i++ {
		spec := ShardSpec{Index: i, Count: k}
		own := spec.Filter(trials)
		results, _, err := Execute(ctx, job, own, engine.Options{Workers: 2}, nil, noScratch, trialFn)
		if err != nil {
			t.Fatal(err)
		}
		h := ShardHeader{ExpID: job.ExpID, Fingerprint: job.Fingerprint,
			ShardIndex: i, ShardCount: k, TotalTrials: len(trials)}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.bin", i))
		if err := WriteShardFile(path, h, results); err != nil {
			t.Fatal(err)
		}
		gotH, gotR, err := ReadShardFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if gotH != h {
			t.Fatalf("header round trip: %+v != %+v", gotH, h)
		}
		if !reflect.DeepEqual(gotR, results) {
			t.Fatalf("entries round trip: %v != %v", gotR, results)
		}
		paths = append(paths, path)
	}

	h, merged, err := Merge(paths)
	if err != nil {
		t.Fatal(err)
	}
	if h.ExpID != job.ExpID || len(merged) != len(trials) {
		t.Fatalf("merged header %+v, %d results", h, len(merged))
	}
	for _, tr := range trials {
		if merged[tr.Index] != float64(tr.Seed)*1.5 {
			t.Fatalf("trial %d: merged %v", tr.Index, merged[tr.Index])
		}
	}

	// Incomplete coverage is an error that names the gap.
	if _, _, err := Merge(paths[:2]); err == nil {
		t.Error("merge of 2 of 3 shards succeeded")
	}
	// The same shard twice is an error.
	if _, _, err := Merge([]string{paths[0], paths[0], paths[1], paths[2]}); err == nil {
		t.Error("merge with a duplicated shard succeeded")
	}
	// A file from a different plan is an error.
	otherTrials := makeTrials(11)
	otherTrials[0].Seed = 9999
	otherJob := testJob(otherTrials)
	results, _, err := Execute(ctx, otherJob, (ShardSpec{Index: 0, Count: k}).Filter(otherTrials),
		engine.Options{}, nil, noScratch, trialFn)
	if err != nil {
		t.Fatal(err)
	}
	alien := filepath.Join(dir, "alien.bin")
	if err := WriteShardFile(alien, ShardHeader{ExpID: otherJob.ExpID, Fingerprint: otherJob.Fingerprint,
		ShardIndex: 0, ShardCount: k, TotalTrials: len(otherTrials)}, results); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Merge([]string{alien, paths[1], paths[2]}); err == nil {
		t.Error("merge across different fingerprints succeeded")
	}
}

func TestReadShardFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(path, []byte("not a shard file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadShardFile(path); err == nil {
		t.Error("garbage accepted as shard file")
	}
	if _, _, err := ReadShardFile(filepath.Join(dir, "absent.bin")); err == nil {
		t.Error("missing file accepted")
	}
}
