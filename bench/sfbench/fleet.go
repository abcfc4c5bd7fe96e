package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"time"

	"scalefree/internal/core"
	"scalefree/internal/engine"
	"scalefree/internal/experiment"
	"scalefree/internal/obs"
	"scalefree/internal/obs/trace"
	"scalefree/internal/sweep"
)

// fleetWorkload is a coordinator and one worker process with
// fleetThreads trial workers, over loopback, with a result cache. Its
// set-up fills the cache cold; the timed repetitions replay the same
// sweep from the warm cache, executing no trial.
//
// One worker, not two: with two, whichever worker asks for a chunk
// while the other holds the last one is told to WAIT 500 ms (a quarter
// of the default lease TTL, capped), and the coordinator cannot exit
// before it asks again. A warm replay then takes either ~0.12 s or
// ~0.62 s depending on that race, which no bound can hold.
type fleetWorkload struct {
	exps  []string
	scale float64 // experiment -scale at benchmark scale 1
}

var (
	// coordAddr matches the coordinator's listen line on stderr.
	coordAddr = regexp.MustCompile(`coordinating \d+ trials on (\S+) `)
	// workerDone matches the worker's last stderr line.
	workerDone = regexp.MustCompile(`worker done in \S+ \((\d+) executed, \d+ cached\)`)
)

// chunkLane is the trace lane of the in-process worker's chunk spans,
// clear of the lanes the engine's writers take (1, 2, ...).
const chunkLane = 100

func (w fleetWorkload) run(ctx context.Context, b *bench, traced bool) (*outcome, error) {
	exps, err := lookupExperiments(w.exps)
	if err != nil {
		return nil, err
	}
	cfg := experiment.Config{Seed: b.seed, Scale: w.scale * b.scale}
	args := sweepArgs(w.exps, cfg)
	trials, _, err := planAll(exps, cfg)
	if err != nil {
		return nil, err
	}
	out := newOutcome()

	fills := setupReps
	if traced {
		fills = 1
	}
	var setup []float64
	var cold []byte
	cache := ""
	for i := 0; i < fills; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("cache-%d", i))
		out.attempted += trials
		rep, err := w.replay(ctx, b, args, dir)
		if err != nil {
			out.failed += trials
			return out, err
		}
		if rep.executed == 0 {
			out.problemf("cold fill %d executed no trial", i+1)
		}
		if cold == nil {
			cold = rep.tables
		} else if !bytes.Equal(rep.tables, cold) {
			out.problemf("cold fill %d printed different tables from fill 1", i+1)
		}
		setup = append(setup, rep.wall.Seconds())
		fmt.Fprintf(b.log, "  cold fill %d: %.3fs wall, %d trials executed\n", i+1, rep.wall.Seconds(), rep.executed)
		if cache != "" {
			if err := os.RemoveAll(cache); err != nil {
				return out, err
			}
		}
		cache = dir
	}
	filled, err := readCache(lane{}, exps, cfg, cache)
	if err != nil {
		return out, err
	}
	if !bytes.Equal(filled.tables, cold) {
		out.problemf("tables reduced from the filled cache differ from the coordinator's")
	}
	out.setDigest("results", resultsDigest(w.exps, filled.results))
	if traced {
		return w.runTraced(ctx, b, exps, cfg, args, cache, cold, trials, out)
	}

	var wall, cpu, rss []float64
	err = b.repeat(ctx, minReps, func(i int) error {
		out.attempted += trials
		rep, err := w.replay(ctx, b, args, cache)
		if err != nil {
			out.failed += trials
			return err
		}
		if rep.executed != 0 {
			out.problemf("warm replay %d executed %d trials; the cache should serve every one", i+1, rep.executed)
		}
		if !bytes.Equal(rep.tables, cold) {
			out.problemf("warm replay %d printed different tables from the cold fill", i+1)
		}
		wall = append(wall, rep.wall.Seconds())
		cpu = append(cpu, rep.cpu.Seconds())
		rss = append(rss, rep.rssMiB)
		return nil
	})
	if err != nil {
		return out, err
	}
	fmt.Fprintf(b.log, "  %d warm replays, median %.3fs\n", len(wall), median(wall))
	out.metrics["wall_s"] = median(wall)
	out.metrics["setup_s"] = median(setup)
	out.metrics["cpu_s"] = median(cpu)
	out.metrics["peak_rss_mib"] = median(rss)
	return out, nil
}

type replayResult struct {
	wall     time.Duration // coordinator start to the later exit of the two processes
	cpu      time.Duration // coordinator plus worker
	rssMiB   float64       // the larger process's peak
	tables   []byte
	executed int
}

// replay runs one coordinated sweep through the CLI: a coordinator on
// a loopback port and a worker executing through the cache in
// cacheDir.
func (w fleetWorkload) replay(ctx context.Context, b *bench, args []string, cacheDir string) (*replayResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	var started []*child
	defer func() {
		cancel()
		for _, c := range started {
			<-c.done
		}
	}()
	coord, err := b.start(ctx, coordAddr, "experiments", slices.Concat(args, []string{"-coordinate", "127.0.0.1:0"})...)
	if err != nil {
		return nil, err
	}
	started = append(started, coord)
	addr, err := coord.await(30 * time.Second)
	if err != nil {
		return nil, err
	}
	worker, err := b.start(ctx, nil, "experiments",
		slices.Concat(args, []string{"-worker", addr, "-workers", strconv.Itoa(fleetThreads), "-cache", cacheDir})...)
	if err != nil {
		return nil, err
	}
	started = append(started, worker)

	c, err := coord.wait()
	if err != nil {
		return nil, err
	}
	wk, err := worker.wait()
	if err != nil {
		return nil, err
	}
	m := workerDone.FindSubmatch(wk.stderr)
	if m == nil {
		return nil, fmt.Errorf("the worker printed no completion line:\n%s", wk.stderr)
	}
	executed, err := strconv.Atoi(string(m[1]))
	if err != nil {
		return nil, err
	}
	end := c.end
	if wk.end.After(end) {
		end = wk.end
	}
	return &replayResult{
		wall:     end.Sub(c.start),
		cpu:      c.cpu + wk.cpu,
		rssMiB:   max(c.rssMiB, wk.rssMiB),
		tables:   c.stdout,
		executed: executed,
	}, nil
}

// runTraced execs one warm replay through the CLI, then runs the fleet
// in-process: a traced cold pass into a fresh cache, timed cache and
// codec loops over every key, and alternating untraced and traced warm
// passes until the window has passed.
func (w fleetWorkload) runTraced(ctx context.Context, b *bench, exps []experiment.Experiment, cfg experiment.Config, args []string, cliCache string, cold []byte, trials int, out *outcome) (*outcome, error) {
	out.attempted += trials
	cli, err := w.replay(ctx, b, args, cliCache)
	if err != nil {
		out.failed += trials
		return out, err
	}
	check := func(what string, p *fleetPassResult) {
		if !bytes.Equal(p.tables, cold) {
			out.problemf("%s: in-process tables differ from the CLI's", what)
		}
		out.setDigest("results", resultsDigest(w.exps, p.results))
	}

	cache := filepath.Join(b.work, "inproc-cache")
	rec := trace.New()
	out.attempted += trials
	p, err := fleetPass(ctx, exps, cfg, cache, rec)
	if err != nil {
		out.failed += trials
		return out, err
	}
	check("cold pass", p)
	if p.executed == 0 {
		out.problemf("the in-process cold pass executed no trial")
	}
	ctl := lane{rec: rec}
	filled, err := readCache(ctl, exps, cfg, cache)
	if err != nil {
		return out, err
	}
	put, err := sweep.OpenCache(filepath.Join(b.work, "put-cache"))
	if err != nil {
		return out, err
	}
	resultBytes := 0
	for i, e := range exps {
		n, err := codecRoundTrip(ctl, filled.results[i])
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		resultBytes += n
		ctl.begin("cache put "+e.ID, "sweep.cache_put")
		for j, key := range filled.keys[i] {
			if err = put.Put(key, filled.fps[i], filled.results[i][j]); err != nil {
				break
			}
		}
		ctl.end()
		if err != nil {
			return out, err
		}
	}
	sp, err := finishTrace(rec, b.traceFile)
	if err != nil {
		return out, err
	}
	if err := b.checkTraceFile(ctx); err != nil {
		return out, err
	}
	out.metrics = sp.metrics()
	perKey := 1e6 / float64(trials)
	out.metrics["sweep.cache_get_us"] = perKey * sp.self["sweep.cache_get"]
	out.metrics["sweep.cache_put_us"] = perKey * sp.self["sweep.cache_put"]
	out.metrics["sweep.encode_us"] = perKey * sp.self["sweep.encode"]
	out.metrics["sweep.decode_us"] = perKey * sp.self["sweep.decode"]
	out.metrics["sweep.result_bytes"] = float64(resultBytes)
	out.metrics["sweep.chunks"] = float64(p.chunks)
	out.metrics["sweep.chunk_exec_s"] = sp.self["sweep.chunk_exec"]
	out.metrics["sweep.leases_stolen"] = float64(p.stolen)
	out.metrics["sweep.chunk_retries"] = float64(p.retries)

	warm, err := b.alternate(ctx, cli.wall, func(i int, rec *trace.Recorder) (time.Duration, map[string]float64, error) {
		out.attempted += trials
		p, err := fleetPass(ctx, exps, cfg, cache, rec)
		if err != nil {
			out.failed += trials
			return 0, nil, err
		}
		check(fmt.Sprintf("warm pass %d", i+1), p)
		if p.executed != 0 {
			out.problemf("warm pass %d executed %d trials; the cache should serve every one", i+1, p.executed)
		}
		if rec == nil {
			return p.wall, nil, nil
		}
		sp, err := finishTrace(rec, filepath.Join(b.work, "warm-trace.json"))
		if err != nil {
			return 0, nil, err
		}
		return p.wall, map[string]float64{
			"experiment.plan_s":         sp.self["experiment.plan"],
			"sweep.dispatch_overhead_s": p.dispatch.Seconds(),
		}, nil
	})
	if err != nil {
		return out, err
	}
	for k, v := range warm {
		out.metrics[k] = v
	}
	return out, nil
}

type fleetPassResult struct {
	wall     time.Duration
	tables   []byte
	results  [][]any
	executed int
	chunks   int
	dispatch time.Duration // coordinated window not spent executing chunks
	stolen   int64
	retries  int64
}

// fleetPass runs sweep.Coordinate on a loopback listener and one
// sweep.RunWorker goroutine executing through the cache in cacheDir on
// fleetThreads trial workers, with a span around every chunk.
func fleetPass(ctx context.Context, exps []experiment.Experiment, cfg experiment.Config, cacheDir string, rec *trace.Recorder) (*fleetPassResult, error) {
	stolen := obs.Default().Counter("scalefree_coord_leases_stolen_total", "")
	retries := obs.Default().Counter("scalefree_coord_chunk_retries_total", "")
	stolen0, retries0 := stolen.Value(), retries.Value()

	ctl := lane{rec: rec}
	start := time.Now()
	ctl.begin("fleet", catRoot)
	defer ctl.end()
	type local struct {
		plan *experiment.Plan
		job  sweep.Job
	}
	locals := make(map[string]local, len(exps))
	jobs := make([]sweep.CoordJob, len(exps))
	for i, e := range exps {
		ctl.begin("plan "+e.ID, "experiment.plan")
		plan, err := e.Plan(cfg)
		fp := ""
		if err == nil {
			fp, err = e.Fingerprint(cfg)
		}
		ctl.end()
		if err != nil {
			return nil, err
		}
		job := sweep.Job{ExpID: e.ID, Fingerprint: fp}
		locals[e.ID] = local{plan: plan, job: job}
		jobs[i] = sweep.CoordJob{Job: job, Trials: plan.Trials}
	}
	cache, err := sweep.OpenCache(cacheDir)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var busy time.Duration
	chunks := 0
	wl := lane{rec: rec, tid: chunkLane}
	resolve := func(expID, fingerprint string) (*sweep.WorkerJob, error) {
		l, ok := locals[expID]
		if !ok || l.job.Fingerprint != fingerprint {
			return nil, fmt.Errorf("lease for an unplanned job %s %.12s", expID, fingerprint)
		}
		execute := func(ctx context.Context, trials []engine.Trial) (map[int]any, sweep.Stats, error) {
			t0 := time.Now()
			wl.begin("chunk "+expID, "sweep.chunk_exec")
			res, st, err := sweep.Execute(ctx, l.job, trials, engine.Options{Workers: fleetThreads, Trace: rec},
				cache, core.NewScratch, l.plan.Run)
			wl.end()
			busy += time.Since(t0)
			chunks++
			return res, st, err
		}
		return &sweep.WorkerJob{Trials: l.plan.Trials, Execute: execute}, nil
	}
	var (
		wg     sync.WaitGroup
		stats  sweep.Stats
		werr   error
		window time.Duration
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, werr = sweep.RunWorker(ctx, lis.Addr().String(), resolve, sweep.WorkerOptions{Name: "worker"})
		if werr != nil {
			cancel() // release the coordinator, which would wait for this worker's chunks
		}
	}()
	ctl.begin("coordinate", catCoordinate)
	t0 := time.Now()
	byJob, err := sweep.Coordinate(ctx, lis, jobs, sweep.CoordOptions{})
	window = time.Since(t0)
	ctl.end()
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}

	r := &fleetPassResult{}
	var tables bytes.Buffer
	for i, e := range exps {
		res, err := positional(byJob[i], len(jobs[i].Trials))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		ctl.begin("reduce "+e.ID, "experiment.reduce")
		t, err := locals[e.ID].plan.Reduce(res)
		ctl.end()
		if err != nil {
			return nil, fmt.Errorf("%s: reducing: %w", e.ID, err)
		}
		ctl.begin("render "+e.ID, "experiment.render")
		err = renderTables(&tables, t)
		ctl.end()
		if err != nil {
			return nil, err
		}
		r.results = append(r.results, res)
	}
	r.wall = time.Since(start)
	r.tables = tables.Bytes()
	r.executed = stats.Executed
	r.chunks = chunks
	r.dispatch = window - busy
	r.stolen = stolen.Value() - stolen0
	r.retries = retries.Value() - retries0
	return r, nil
}

// cacheContents is every trial result of a filled cache, in plan order.
type cacheContents struct {
	fps     []string   // per experiment
	keys    [][]string // per experiment, per trial
	results [][]any
	tables  []byte // the tables reduced from results
}

// readCache gets every trial's result from a filled cache, with a span
// per experiment on ctl, and reduces them to tables.
func readCache(ctl lane, exps []experiment.Experiment, cfg experiment.Config, dir string) (*cacheContents, error) {
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	c := &cacheContents{}
	var tables bytes.Buffer
	for _, e := range exps {
		plan, err := e.Plan(cfg)
		if err != nil {
			return nil, err
		}
		fp, err := e.Fingerprint(cfg)
		if err != nil {
			return nil, err
		}
		keys := make([]string, len(plan.Trials))
		for j, t := range plan.Trials {
			keys[j] = sweep.CacheKey(e.ID, fp, t)
		}
		res := make([]any, len(keys))
		missing := -1
		ctl.begin("cache get "+e.ID, "sweep.cache_get")
		for j, key := range keys {
			v, ok := cache.Get(key)
			if !ok {
				missing = j
				break
			}
			res[j] = v
		}
		ctl.end()
		if missing >= 0 {
			return nil, fmt.Errorf("%s trial %s is missing from the cache in %s", e.ID, plan.Trials[missing].Key, dir)
		}
		t, err := plan.Reduce(res)
		if err != nil {
			return nil, fmt.Errorf("%s: reducing: %w", e.ID, err)
		}
		if err := renderTables(&tables, t); err != nil {
			return nil, err
		}
		c.fps = append(c.fps, fp)
		c.keys = append(c.keys, keys)
		c.results = append(c.results, res)
	}
	c.tables = tables.Bytes()
	return c, nil
}
