// Command experiments runs the paper-reproduction experiment suite
// (E1–E13, see DESIGN.md) and prints the EXPERIMENTS.md tables.
//
// Usage:
//
//	experiments [-run E1,E4] [-scale 1.0] [-seed 2024] [-workers 0]
//	            [-progress] [-csv dir] [-cache dir [-cache-max-bytes n]]
//	            [-shard i/k -out dir] [-merge dir]
//	            [-coordinate addr [-chunk n] [-lease-ttl d] [-auth-key k]
//	                             [-chaos seed]]
//	            [-worker addr [-auth-key k] [-dial-retries n]]
//	            [-cache-gc fingerprint]
//	            [-status-addr addr [-pprof]] [-dump-metrics]
//	            [-events file [-events-max-bytes n]]
//	            [-trace file]
//
// -scale shrinks workload sizes and replication counts proportionally
// (0.1 gives a quick smoke run; it must be finite, positive and below
// experiment.MaxScale); -workers bounds the trial worker pool
// (0 uses every core; output is bit-identical for every worker count
// under the same seed); -progress streams per-trial completions plus
// an aggregate rate/ETA to stderr; -csv additionally writes every
// table as a CSV file into the given directory. Ctrl-C cancels the run
// between trials.
//
// Distribution (DESIGN.md §6): -cache dir keeps a content-addressed
// per-trial result cache, so interrupted sweeps resume where they
// stopped and unchanged experiments re-reduce without recomputing. It
// is the one resume mechanism of every mode that executes or schedules
// trials. -shard i/k (1-based, with -out dir) executes only the i-th
// of k disjoint slices of each selected experiment's trials and writes
// a shard file instead of tables — run the k shards on any machines,
// gather the files into one directory, and -merge dir reassembles them
// and prints tables byte-identical to a single-process run of the same
// seed and scale.
//
// Work stealing (DESIGN.md §6.4): -coordinate addr listens for worker
// processes, leases them trial chunks with heartbeat deadlines —
// reassigning a dead worker's chunk — and prints the same
// byte-identical tables once every trial reports; -worker addr joins
// such a coordinator, executing leased chunks through the local
// -workers pool and optional -cache. Every process must use the same
// binary, -run, -seed, and -scale; the plan fingerprint enforces this.
// A coordinator's -cache stores every result it accepts before it
// acknowledges the chunk, so a coordinator restarted on the same
// -cache after a cancel or crash leases only the missing trials, and
// one whose cache is complete prints tables with no worker attached.
// -cache-gc fingerprint deletes a finished or abandoned run's entries
// (plus crashed writers' temp files) from -cache.
//
// Robustness (DESIGN.md §6.6): -auth-key authenticates every
// coordinator/worker handshake by shared-key HMAC challenge–response —
// both ends must carry the same key, and a mismatch is rejected before
// any trial is leased. -dial-retries bounds a worker's consecutive
// failed connection attempts; within the bound the worker rides out
// coordinator restarts and partitions with jittered exponential
// backoff. -cache-max-bytes evicts least-recently-used -cache entries
// down to the given size after a successful run, never touching
// entries the run itself wrote or read. -chaos n wraps every accepted
// coordinator connection in deterministic seed-scripted fault
// injection (internal/faultnet) for recovery drills; the rendered
// tables must still be byte-identical to a fault-free run.
//
// Observability (DESIGN.md §9): -status-addr serves an HTTP ops plane
// on a coordinator or worker — /metrics (Prometheus text exposition),
// /status (JSON sweep snapshot: chunk/lease table summary, per-worker
// completion counts, rate and ETA; append ?format=html for a live
// view), /healthz, and with -pprof the net/http/pprof profiles.
// -events file appends one JSON line per sweep lifecycle event (worker
// join/leave, lease grant/steal/revoke/complete, chunk fail/retry,
// injected faults, cache GC/eviction); -events-max-bytes rotates
// the file (events.jsonl -> events.1.jsonl, ...) when it would exceed
// the limit, with sequence numbers monotonic across rotations.
// -dump-metrics prints the full metrics exposition to stderr at exit.
//
// Tracing (DESIGN.md §11): -trace file writes a Chrome trace-event JSON
// timeline (open in Perfetto or chrome://tracing) of the whole sweep —
// per-trial spans with generate/freeze/search phases in a local run; in
// a coordinated run the lease lifecycle, steals, retries, and every
// worker's merged trial spans, propagated back over the wire, in one
// file. -trace belongs on the process that owns the timeline (a plain
// run or the coordinator; workers are enabled remotely via the lease
// protocol). Analyze the file with `sweeptrace` (critical path,
// per-worker utilization, slowest trials). All of it is strictly
// observational: rendered tables stay byte-identical with every
// observability flag enabled.
//
// Tables go to stdout; all status goes to stderr, so single-process,
// merged, and coordinated outputs diff cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/experiment"
	"scalefree/internal/faultnet"
	"scalefree/internal/obs"
	"scalefree/internal/obs/trace"
	"scalefree/internal/sweep"
)

// mFaultsInjected counts chaos faults by operation. It lives here, not
// in faultnet, so the fault injector itself stays dependency-free; the
// CLI bridges its structured event callback into metrics and the event
// log.
var mFaultsInjected = obs.Default().CounterVec("scalefree_faultnet_injected_total",
	"Faults injected by the -chaos wrapper, by operation.", "op")

// buildInfo registers the binary's identity as the constant metric
// scalefree_build_info and feeds the /status payloads — the fleet-wide
// answer to "which revision is this process actually running?".
var buildInfo = obs.RegisterBuildInfo(obs.Default())

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// options is the parsed command line. Modes and their validity rules
// live in validate(), separately from flag plumbing, so the CLI test
// covers every rejected combination without exec'ing the binary.
type options struct {
	runList  string
	scale    float64
	seed     uint64
	workers  int
	progress bool
	csvDir   string
	cacheDir string
	shard    string
	out      string
	merge    string
	coord    string
	worker   string
	cacheGC  string
	chunk    int
	leaseTTL time.Duration

	authKey       string
	dialRetries   int
	cacheMaxBytes int64
	chaos         uint64

	statusAddr     string
	pprofOn        bool
	eventsPath     string
	eventsMaxBytes int64
	dumpMetrics    bool
	tracePath      string

	// set records which flags were explicitly given, for rejecting
	// explicit-but-meaningless combinations whose zero values are
	// otherwise fine.
	set map[string]bool
}

func (o *options) isSet(name string) bool { return o.set[name] }

// mode names the execution mode the flags select: "run", "shard",
// "merge", "coordinate", "worker", or "cache-gc".
func (o *options) mode() string {
	switch {
	case o.merge != "":
		return "merge"
	case o.shard != "":
		return "shard"
	case o.coord != "":
		return "coordinate"
	case o.worker != "":
		return "worker"
	case o.cacheGC != "":
		return "cache-gc"
	default:
		return "run"
	}
}

// validate rejects meaningless flag combinations up front — a
// silently ignored flag reads as accepted and misleads the operator.
func (o *options) validate() error {
	// Plans multiply their sizes by -scale: a value that is not finite
	// and positive would quietly run the minimum sizes or the full
	// workload under a misleading banner, and one from
	// experiment.MaxScale on would overflow the vertex ids.
	if !(o.scale > 0 && o.scale < experiment.MaxScale) {
		return fmt.Errorf("-scale must be finite, positive and below %d, got %v", experiment.MaxScale, o.scale)
	}
	// The five non-default modes are pairwise exclusive.
	modes := []struct{ flag, value string }{
		{"-merge", o.merge}, {"-shard", o.shard}, {"-coordinate", o.coord},
		{"-worker", o.worker}, {"-cache-gc", o.cacheGC},
	}
	var active []string
	for _, m := range modes {
		if m.value != "" {
			active = append(active, m.flag)
		}
	}
	if len(active) > 1 {
		return fmt.Errorf("%s are mutually exclusive: each selects a different execution mode", strings.Join(active, " and "))
	}
	if o.out != "" && o.mode() != "shard" {
		return fmt.Errorf("-out is the shard file directory written by -shard; it requires -shard i/k")
	}

	switch o.mode() {
	case "merge":
		switch {
		case o.cacheDir != "":
			return fmt.Errorf("-cache applies to runs that execute trials; -merge only reads shard files")
		case o.isSet("workers") || o.progress:
			return fmt.Errorf("-workers and -progress apply to runs that execute trials; -merge only reads shard files")
		}
	case "shard":
		switch {
		case o.out == "":
			return fmt.Errorf("-shard requires -out: shard runs write result files, not tables")
		case o.csvDir != "":
			return fmt.Errorf("-csv applies to runs that print tables; shard runs write result files (use -csv with -merge)")
		}
	case "coordinate":
		if o.isSet("workers") {
			return fmt.Errorf("-workers sizes a trial pool; the coordinator executes no trials (set it on each -worker)")
		}
	case "worker":
		if o.csvDir != "" {
			return fmt.Errorf("-csv applies to runs that print tables; workers stream results to the coordinator (use -csv there)")
		}
	case "cache-gc":
		switch {
		case o.cacheDir == "":
			return fmt.Errorf("-cache-gc needs -cache to name the cache directory to collect")
		case o.isSet("workers") || o.progress || o.csvDir != "":
			return fmt.Errorf("-cache-gc only deletes cache entries; it executes no trials and prints no tables")
		}
	}

	// Coordinator tunables make sense only where leases exist.
	if o.mode() != "coordinate" {
		if o.isSet("chunk") {
			return fmt.Errorf("-chunk sizes coordinator leases; it requires -coordinate")
		}
		if o.isSet("lease-ttl") {
			return fmt.Errorf("-lease-ttl bounds coordinator leases; it requires -coordinate")
		}
	}
	if o.isSet("chunk") && o.chunk < 1 {
		return fmt.Errorf("-chunk must be >= 1 trials per lease")
	}
	if o.isSet("lease-ttl") && o.leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive")
	}

	// Robustness tunables are mode-specific too.
	if o.isSet("auth-key") && o.mode() != "coordinate" && o.mode() != "worker" {
		return fmt.Errorf("-auth-key authenticates the coordinator/worker handshake; it requires -coordinate or -worker")
	}
	if o.isSet("dial-retries") && o.mode() != "worker" {
		return fmt.Errorf("-dial-retries bounds a worker's reconnection attempts; it requires -worker")
	}
	if o.isSet("chaos") && o.mode() != "coordinate" {
		return fmt.Errorf("-chaos injects faults on coordinator connections; it requires -coordinate")
	}
	// Observability flags: the ops plane belongs to long-lived sweep
	// processes; the event log to processes that emit sweep lifecycle
	// events.
	if o.statusAddr != "" && o.mode() != "coordinate" && o.mode() != "worker" {
		return fmt.Errorf("-status-addr serves the coordinator/worker ops plane (/metrics, /status); it requires -coordinate or -worker")
	}
	if o.pprofOn && o.statusAddr == "" {
		return fmt.Errorf("-pprof mounts profiling endpoints on the ops plane; it requires -status-addr")
	}
	if o.eventsPath != "" {
		switch o.mode() {
		case "coordinate", "worker", "cache-gc":
		default:
			return fmt.Errorf("-events records sweep lifecycle events; it requires -coordinate, -worker, or -cache-gc")
		}
	}
	if o.isSet("events-max-bytes") {
		switch {
		case o.eventsPath == "":
			return fmt.Errorf("-events-max-bytes rotates the -events file; it requires -events")
		case o.eventsMaxBytes <= 0:
			return fmt.Errorf("-events-max-bytes must be positive")
		}
	}
	if o.dumpMetrics && o.mode() == "merge" {
		return fmt.Errorf("-dump-metrics snapshots execution metrics; -merge only reads shard files")
	}
	// Tracing: the trace file belongs to the process that owns the sweep
	// timeline — a plain run, or the coordinator (which merges every
	// worker's spans off the wire). Workers are traced remotely: the
	// lease protocol enables their recorders, and their spans ship back
	// on COMPLETE.
	if o.tracePath != "" && o.mode() != "run" && o.mode() != "coordinate" {
		return fmt.Errorf("-trace writes the sweep timeline from a plain run or a coordinator; workers are traced through the lease protocol")
	}
	if o.isSet("cache-max-bytes") {
		switch {
		case o.cacheDir == "":
			return fmt.Errorf("-cache-max-bytes bounds the -cache directory; it requires -cache")
		case o.cacheMaxBytes < 0:
			return fmt.Errorf("-cache-max-bytes must be >= 0")
		case o.mode() == "cache-gc":
			return fmt.Errorf("-cache-max-bytes evicts after a run completes; use -cache-gc's fingerprint deletion instead")
		}
	}
	return nil
}

func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.StringVar(&o.runList, "run", "all", "comma-separated experiment IDs (e.g. E1,E4) or 'all'")
	fs.Float64Var(&o.scale, "scale", 1.0, "workload scale factor (1.0 = full EXPERIMENTS.md workload)")
	fs.Uint64Var(&o.seed, "seed", 2024, "master seed")
	fs.IntVar(&o.workers, "workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
	fs.BoolVar(&o.progress, "progress", false, "stream per-trial completions and aggregate rate/ETA to stderr")
	fs.StringVar(&o.csvDir, "csv", "", "directory to also write per-table CSV files (optional)")
	fs.StringVar(&o.cacheDir, "cache", "", "content-addressed per-trial result cache directory; a rerun on it resumes where a cancelled or crashed run stopped (optional)")
	fs.StringVar(&o.shard, "shard", "", "execute one shard i/k (1-based, e.g. 2/5) and write a shard file instead of tables; requires -out")
	fs.StringVar(&o.out, "out", "", "directory for shard files written by -shard")
	fs.StringVar(&o.merge, "merge", "", "merge shard files from this directory and print tables (instead of executing trials)")
	fs.StringVar(&o.coord, "coordinate", "", "listen on this address (e.g. :9131) and lease trial chunks to -worker processes")
	fs.StringVar(&o.worker, "worker", "", "connect to a coordinator at this address and execute leased chunks")
	fs.StringVar(&o.cacheGC, "cache-gc", "", "delete the given plan fingerprint's entries (plus temp files) from -cache")
	fs.IntVar(&o.chunk, "chunk", 8, "with -coordinate: trials per lease")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 10*time.Second, "with -coordinate: heartbeat deadline before a lease's chunk is reassigned")
	fs.StringVar(&o.authKey, "auth-key", "", "shared key for the coordinator/worker HMAC handshake (both ends must agree)")
	fs.IntVar(&o.dialRetries, "dial-retries", 0, "with -worker: consecutive failed connection attempts before giving up (0 = default 10, negative = single attempt)")
	fs.Int64Var(&o.cacheMaxBytes, "cache-max-bytes", 0, "after a successful run: evict least-recently-used -cache entries down to this many bytes (current run's entries are never evicted)")
	fs.Uint64Var(&o.chaos, "chaos", 0, "with -coordinate: inject deterministic seed-scripted connection faults (delays, resets, truncations, partitions) for recovery testing")
	fs.StringVar(&o.statusAddr, "status-addr", "", "with -coordinate or -worker: serve the HTTP ops plane (/metrics, /status, /healthz) on this address")
	fs.BoolVar(&o.pprofOn, "pprof", false, "with -status-addr: also mount net/http/pprof under /debug/pprof/")
	fs.StringVar(&o.eventsPath, "events", "", "write one JSON line per sweep lifecycle event to this file")
	fs.Int64Var(&o.eventsMaxBytes, "events-max-bytes", 0, "with -events: rotate the event log when it would exceed this many bytes (events.jsonl -> events.1.jsonl, ...)")
	fs.BoolVar(&o.dumpMetrics, "dump-metrics", false, "print the Prometheus text exposition of all metrics to stderr at exit")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON timeline of the sweep to this file (open in Perfetto; analyze with sweeptrace)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

func run() error {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var selected []experiment.Experiment
	if o.runList == "all" {
		selected = experiment.Registry()
	} else {
		for _, id := range strings.Split(o.runList, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiment.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (known: E1..E13)", id)
			}
			selected = append(selected, e)
		}
	}
	if o.csvDir != "" {
		if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
			return fmt.Errorf("creating CSV directory: %w", err)
		}
	}

	var cache *sweep.Cache
	if o.cacheDir != "" {
		if cache, err = sweep.OpenCache(o.cacheDir); err != nil {
			return err
		}
	}

	cfg := experiment.Config{Seed: o.seed, Scale: o.scale}

	// The event log and the metrics dump bracket whichever mode runs;
	// both are nil-safe no-ops when their flags are absent.
	var events *obs.EventLog
	if o.eventsPath != "" {
		if events, err = obs.OpenEventLogRotating(o.eventsPath, o.eventsMaxBytes); err != nil {
			return err
		}
	}

	err = func() error {
		switch o.mode() {
		case "merge":
			return mergeShards(selected, cfg, o.merge, o.csvDir)
		case "shard":
			spec, err := sweep.ParseShardSpec(o.shard)
			if err != nil {
				return err
			}
			return runShards(ctx, selected, cfg, spec, o.workers, o.progress, cache, o.out)
		case "coordinate":
			return runCoordinator(ctx, selected, cfg, o, cache, events)
		case "worker":
			return runWorker(ctx, selected, cfg, o, cache, events)
		case "cache-gc":
			return runCacheGC(cache, o.cacheGC, events)
		default:
			return runAll(ctx, selected, cfg, o, cache)
		}
	}()

	// Eviction runs only after a fully successful run: an interrupted
	// sweep's entries are exactly what the next -cache run resumes from.
	if err == nil && o.isSet("cache-max-bytes") && cache != nil {
		stats, eerr := cache.EvictTo(o.cacheMaxBytes)
		if eerr != nil {
			err = fmt.Errorf("evicting cache to %d bytes: %w", o.cacheMaxBytes, eerr)
		} else {
			events.Emit(obs.Event{Event: "cache_evict", N: stats.Bytes, Msg: stats.String()})
			fmt.Fprintf(os.Stderr, "cache %s: evicted to <= %d bytes (%s)\n", cache.Dir(), o.cacheMaxBytes, stats)
		}
	}

	// Metrics go to stderr: stdout carries only the byte-identical
	// tables the golden comparisons diff.
	if o.dumpMetrics {
		if werr := obs.Default().WriteText(os.Stderr); werr != nil && err == nil {
			err = fmt.Errorf("dumping metrics: %w", werr)
		}
	}
	if cerr := events.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("event log %s: %w", o.eventsPath, cerr)
	}
	return err
}

// progressHook builds the -progress stderr stream: per-trial lines
// with the aggregate sliding-window rate and ETA appended.
func progressHook(tracker *engine.RateTracker) func(engine.Progress) {
	return func(p engine.Progress) {
		tracker.Observe(p)
		status := "ok"
		if p.Err != nil {
			status = "FAIL: " + p.Err.Error()
		}
		fmt.Fprintf(os.Stderr, "  [%d/%d] %s (%v) %s | %s\n",
			p.Done, p.Total, p.Trial.Key, p.Elapsed.Round(time.Millisecond), status,
			tracker.Snapshot())
	}
}

// newRecorder builds the sweep's trace recorder when -trace is set
// (nil otherwise — every recorder method is nil-safe) and opens the
// root "sweep" span on the control lane.
func newRecorder(o *options, procName string) *trace.Recorder {
	if o.tracePath == "" {
		return nil
	}
	rec := trace.New()
	rec.ProcName = procName
	rec.Emit(trace.Record{Ph: 'B', Name: "sweep", Cat: "sweep"})
	return rec
}

// writeTrace closes the root span and writes the Chrome trace-event
// JSON file. Nil-safe: a nil recorder writes nothing.
func writeTrace(rec *trace.Recorder, path string) error {
	if rec == nil {
		return nil
	}
	rec.Emit(trace.Record{Ph: 'E'})
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace file: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %s (open in Perfetto, or run: sweeptrace %s)\n", path, path)
	return nil
}

// runAll is the classic mode: execute every selected experiment in
// this process (optionally through the result cache) and print tables.
//
//sf:wallclock — wraps deterministic runs with elapsed-time reporting.
func runAll(ctx context.Context, selected []experiment.Experiment, cfg experiment.Config, o *options, cache *sweep.Cache) error {
	rec := newRecorder(o, "sweep")
	for _, e := range selected {
		fmt.Fprintf(os.Stderr, "=== %s: %s (scale %.2f, seed %d, workers %d)\n",
			e.ID, e.Title, cfg.Scale, cfg.Seed, o.workers)
		opts := engine.Options{Workers: o.workers, Trace: rec}
		if o.progress {
			opts.Progress = progressHook(engine.NewRateTracker())
		}
		rec.Emit(trace.Record{Ph: 'B', Name: "experiment " + e.ID, Cat: "sweep"})
		start := time.Now()
		tables, stats, err := e.RunCached(ctx, cfg, opts, cache)
		rec.Emit(trace.Record{Ph: 'E'})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "    completed in %v (%s)\n\n",
			time.Since(start).Round(time.Millisecond), stats)
		if err := emit(e, tables, o.csvDir); err != nil {
			return err
		}
	}
	return writeTrace(rec, o.tracePath)
}

// runShards executes one shard of every selected experiment, writing
// one shard file per experiment into outDir.
//
//sf:wallclock — wraps deterministic runs with elapsed-time reporting.
func runShards(ctx context.Context, selected []experiment.Experiment, cfg experiment.Config, spec sweep.ShardSpec, workers int, progress bool, cache *sweep.Cache, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("creating shard output directory: %w", err)
	}
	for _, e := range selected {
		path := filepath.Join(outDir, e.ShardFileName(spec))
		fp, err := e.Fingerprint(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "=== %s shard %s: %s (scale %.2f, seed %d, fp %s) -> %s\n",
			e.ID, spec, e.Title, cfg.Scale, cfg.Seed, fp, path)
		opts := engine.Options{Workers: workers}
		if progress {
			opts.Progress = progressHook(engine.NewRateTracker())
		}
		start := time.Now()
		stats, err := e.RunShard(ctx, cfg, spec, opts, cache, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "    completed in %v (%s)\n",
			time.Since(start).Round(time.Millisecond), stats)
	}
	return nil
}

// coordStatus is the /status payload a coordinator serves: process
// identity, the sweep scheduling snapshot, and the rate/ETA the
// -progress stderr line prints. Done and Workers are read from the
// same snapshot as Sweep, so they always agree with it.
type coordStatus struct {
	Mode          string              `json:"mode"`
	Addr          string              `json:"addr"`
	Seed          uint64              `json:"seed"`
	Scale         float64             `json:"scale"`
	Experiments   []string            `json:"experiments"`
	Sweep         sweep.CoordSnapshot `json:"sweep"`
	Done          int                 `json:"done"`
	Total         int                 `json:"total"`
	RatePerSec    float64             `json:"rate_per_sec"`
	ETA           string              `json:"eta,omitempty"`
	Workers       []sweep.WorkerCount `json:"workers"`
	ChaosInjected int64               `json:"chaos_injected,omitempty"`
	Build         obs.BuildInfo       `json:"build"`
}

// runCoordinator serves the selected experiments' trials to -worker
// processes and prints the reduced tables once every trial reports.
//
//sf:wallclock — fleet orchestration; timing is operational output.
func runCoordinator(ctx context.Context, selected []experiment.Experiment, cfg experiment.Config, o *options, cache *sweep.Cache, events *obs.EventLog) error {
	total := 0
	expIDs := make([]string, 0, len(selected))
	for _, e := range selected {
		plan, err := e.Plan(cfg)
		if err != nil {
			return fmt.Errorf("%s: planning: %w", e.ID, err)
		}
		fp, err := e.Fingerprint(cfg)
		if err != nil {
			return err
		}
		total += len(plan.Trials)
		expIDs = append(expIDs, e.ID)
		fmt.Fprintf(os.Stderr, "=== %s: %d trials (scale %.2f, seed %d, fp %s)\n",
			e.ID, len(plan.Trials), cfg.Scale, cfg.Seed, fp)
	}
	lis, err := net.Listen("tcp", o.coord)
	if err != nil {
		return fmt.Errorf("coordinator listening on %s: %w", o.coord, err)
	}
	fmt.Fprintf(os.Stderr, "coordinating %d trials on %s (chunk %d, lease TTL %v)\n",
		total, lis.Addr(), o.chunk, o.leaseTTL)

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
	}
	var faultLis *faultnet.Listener
	if o.isSet("chaos") {
		faultLis = faultnet.Listen(lis, o.chaos, faultnet.Default())
		faultLis.Log = logf
		faultLis.OnEvent = func(ev faultnet.Event) {
			mFaultsInjected.With(ev.Op).Inc()
			events.Emit(obs.Event{Event: "fault_injected", Op: ev.Op, Conn: ev.Conn, N: ev.Seq})
		}
		lis = faultLis
		fmt.Fprintf(os.Stderr, "chaos: injecting scripted faults on every accepted connection (seed %d)\n", o.chaos)
	}

	rec := newRecorder(o, "coordinator")
	observer := &sweep.CoordObserver{}
	copts := sweep.CoordOptions{
		ChunkSize: o.chunk,
		LeaseTTL:  o.leaseTTL,
		AuthKey:   o.authKey,
		Cache:     cache,
		Log:       logf,
		Events:    events,
		Observer:  observer,
		Trace:     rec,
	}

	// One rate tracker, fed the coordinator's own completed count,
	// serves both the -progress stderr stream and the /status payload.
	// OnResult is observation only — attaching it does not perturb
	// scheduling or results, which the golden observability test pins.
	var rt *engine.RateTracker
	if o.progress || o.statusAddr != "" {
		rt = engine.NewRateTracker()
		progress := o.progress
		copts.OnResult = func(worker, expID string, t engine.Trial, done int) {
			rt.Observe(engine.Progress{Done: done, Total: total})
			if progress {
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s (worker %s) | %s\n",
					done, total, expID, t.Key, worker, rt.Snapshot())
			}
		}
	}

	if o.statusAddr != "" {
		status := func() any {
			snap, rate := observer.Snapshot(), rt.Snapshot()
			s := coordStatus{
				Mode:        "coordinate",
				Addr:        lis.Addr().String(),
				Seed:        cfg.Seed,
				Scale:       cfg.Scale,
				Experiments: expIDs,
				Sweep:       snap,
				Done:        snap.DoneTrials,
				Total:       total,
				RatePerSec:  rate.Rate,
				Workers:     append([]sweep.WorkerCount{}, snap.ByWorker...), // [] before the sweep starts, never null
				Build:       buildInfo,
			}
			if rate.ETA > 0 {
				s.ETA = rate.ETA.Round(time.Second).String()
			}
			if faultLis != nil {
				s.ChaosInjected = faultLis.Injected()
			}
			return s
		}
		srv, err := obs.StartOps(o.statusAddr, obs.NewOpsHandler(obs.Default(), status, o.pprofOn))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ops plane on http://%s (/metrics /status /healthz)\n", srv.Addr())
	}

	start := time.Now()
	tables, err := experiment.CoordinateSweep(ctx, selected, cfg, lis, copts)
	if faultLis != nil {
		fmt.Fprintf(os.Stderr, "chaos: %d faults injected\n", faultLis.Injected())
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep completed in %v\n", time.Since(start).Round(time.Millisecond))
	if o.progress {
		// Final per-worker attribution from the snapshot a final /status
		// scrape serves, so the two match field for field.
		snap := observer.Snapshot()
		parts := make([]string, 0, len(snap.ByWorker))
		for _, w := range snap.ByWorker {
			parts = append(parts, fmt.Sprintf("%s=%d", w.Source, w.Done))
		}
		fmt.Fprintf(os.Stderr, "workers: [%d/%d] %s\n", snap.DoneTrials, snap.TotalTrials, strings.Join(parts, " "))
	}
	for i, e := range selected {
		if err := emit(e, tables[i], o.csvDir); err != nil {
			return err
		}
	}
	return writeTrace(rec, o.tracePath)
}

// runWorker joins a coordinator and executes leased chunks until the
// sweep is done.
//
//sf:wallclock — fleet orchestration; timing is operational output.
func runWorker(ctx context.Context, selected []experiment.Experiment, cfg experiment.Config, o *options, cache *sweep.Cache, events *obs.EventLog) error {
	// The worker always carries a recorder, but disabled: the lease
	// protocol switches it on when the coordinator is tracing, and the
	// worker's spans ship back on COMPLETE lines — no local trace file,
	// no worker-side tracing flag.
	rec := trace.New()
	rec.SetEnabled(false)
	eopts := engine.Options{Workers: o.workers, Trace: rec}
	if o.progress {
		eopts.Progress = progressHook(engine.NewRateTracker())
	}
	name := sweep.DefaultWorkerName()
	wopts := sweep.WorkerOptions{
		Name:        name,
		AuthKey:     o.authKey,
		DialRetries: o.dialRetries,
		Events:      events,
		Trace:       rec,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		},
	}
	if o.statusAddr != "" {
		status := func() any {
			return map[string]any{
				"mode":        "worker",
				"name":        name,
				"coordinator": o.worker,
				"seed":        cfg.Seed,
				"scale":       cfg.Scale,
				"workers":     o.workers,
				"build":       buildInfo,
			}
		}
		srv, err := obs.StartOps(o.statusAddr, obs.NewOpsHandler(obs.Default(), status, o.pprofOn))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ops plane on http://%s (/metrics /status /healthz)\n", srv.Addr())
	}
	fmt.Fprintf(os.Stderr, "joining coordinator at %s (scale %.2f, seed %d, workers %d)\n",
		o.worker, cfg.Scale, cfg.Seed, o.workers)
	start := time.Now()
	stats, err := experiment.SweepWorker(ctx, selected, cfg, o.worker, eopts, cache, wopts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "worker done in %v (%s)\n", time.Since(start).Round(time.Millisecond), stats)
	return nil
}

// runCacheGC deletes one plan fingerprint's entries from the cache.
func runCacheGC(cache *sweep.Cache, fingerprint string, events *obs.EventLog) error {
	stats, err := cache.GC(fingerprint)
	if err != nil {
		return err
	}
	events.Emit(obs.Event{Event: "cache_gc", N: stats.Bytes, Msg: stats.String()})
	fmt.Fprintf(os.Stderr, "cache-gc %s: removed %s\n", cache.Dir(), stats)
	return nil
}

// mergeShards reassembles shard files from dir for every selected
// experiment and prints the reduced tables.
func mergeShards(selected []experiment.Experiment, cfg experiment.Config, dir, csvDir string) error {
	for _, e := range selected {
		paths, err := filepath.Glob(filepath.Join(dir, e.ID+".shard-*of*"))
		if err != nil {
			return err
		}
		if len(paths) == 0 {
			return fmt.Errorf("%s: no shard files named %s.shard-*of* in %s", e.ID, e.ID, dir)
		}
		sort.Strings(paths)
		fmt.Fprintf(os.Stderr, "=== %s: merging %d shard files (scale %.2f, seed %d)\n",
			e.ID, len(paths), cfg.Scale, cfg.Seed)
		tables, err := e.MergeShardFiles(cfg, paths)
		if err != nil {
			return err
		}
		if err := emit(e, tables, csvDir); err != nil {
			return err
		}
	}
	return nil
}

// emit renders tables to stdout and, when csvDir is set, as CSV files.
func emit(e experiment.Experiment, tables []experiment.Table, csvDir string) error {
	for ti, tab := range tables {
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		if csvDir != "" {
			name := fmt.Sprintf("%s_%d.csv", strings.ToLower(e.ID), ti)
			f, err := os.Create(filepath.Join(csvDir, name))
			if err != nil {
				return fmt.Errorf("creating %s: %w", name, err)
			}
			if err := tab.CSV(f); err != nil {
				f.Close()
				return fmt.Errorf("writing %s: %w", name, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("closing %s: %w", name, err)
			}
		}
	}
	return nil
}
