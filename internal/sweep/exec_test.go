package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/obs"
	"scalefree/internal/obs/trace"
	"scalefree/internal/rng"
)

// unregistered is a trial result the codec cannot encode, so caching
// it fails.
type unregistered struct{ X int }

// trialMetrics reads one experiment's trial metrics from the default
// registry's exposition: completions, failures, and the latency
// histogram's count and sum.
func trialMetrics(t *testing.T, expID string) (done, failed, count int64, sum float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	label := `{exp="` + expID + `"} `
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), label)
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		switch name {
		case "scalefree_trials_completed_total":
			done = int64(f)
		case "scalefree_trial_failures_total":
			failed = int64(f)
		case "scalefree_trial_seconds_count":
			count = int64(f)
		case "scalefree_trial_seconds_sum":
			sum = f
		}
	}
	return done, failed, count, sum
}

// TestExecuteObservesEachTrialOnce runs a traced, cached Execute in
// which one trial's cache write fails, and checks that its span, its
// Progress record and its metrics describe the same executions: the
// failed write counts as a failure, and the spans, the Progress
// durations and the latency histogram add up to the same time.
func TestExecuteObservesEachTrialOnce(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	trials := makeTrials(40)
	job := Job{ExpID: "EOBSERVE", Fingerprint: Fingerprint("EOBSERVE", "p", trials)}
	done0, failed0, count0, sum0 := trialMetrics(t, job.ExpID)

	rec := trace.New()
	var progress []engine.Progress
	opts := engine.Options{Workers: 2, Trace: rec,
		Progress: func(p engine.Progress) { progress = append(progress, p) }}
	_, stats, err := Execute(context.Background(), job, trials, opts, cache, noScratch,
		func(_ context.Context, tr engine.Trial, _ *rng.RNG, _ struct{}) (any, error) {
			time.Sleep(100 * time.Microsecond)
			if tr.Index == 17 {
				return unregistered{tr.Index}, nil
			}
			return float64(tr.Seed), nil
		})
	if err == nil || !strings.Contains(err.Error(), "caching result") {
		t.Fatalf("Execute = %v, want the failed cache write", err)
	}

	var sumElapsed time.Duration
	failures := 0
	for _, p := range progress {
		sumElapsed += p.Elapsed
		if p.Err != nil {
			failures++
		}
	}
	var spans int
	var sumSpans int64
	open := map[int32][]int64{}
	for _, r := range rec.Drain() {
		switch r.Ph {
		case 'B':
			open[r.TID] = append(open[r.TID], r.TS)
		case 'E':
			st := open[r.TID]
			sumSpans += r.TS - st[len(st)-1]
			open[r.TID] = st[:len(st)-1]
			spans++
		}
	}
	done, failed, count, sum := trialMetrics(t, job.ExpID)
	done, failed, count, sum = done-done0, failed-failed0, count-count0, sum-sum0

	if failures != 1 || failed != 1 {
		t.Errorf("the failed cache write shows as %d failed Progress records and %d counted failures, want 1 and 1", failures, failed)
	}
	if n := int64(len(progress)); int64(spans) != n || done+failed != n || count != n {
		t.Errorf("%d trial spans, %d Progress records, %d completed + %d failed, histogram count %d: want all equal",
			spans, len(progress), done, failed, count)
	}
	if int64(stats.Executed) != done {
		t.Errorf("Stats.Executed = %d, trials_completed = %d", stats.Executed, done)
	}
	if sumSpans != int64(sumElapsed) {
		t.Errorf("trial spans sum to %d ns, Progress.Elapsed to %d ns", sumSpans, int64(sumElapsed))
	}
	if want := sumElapsed.Seconds(); math.Abs(sum-want) > 1e-9*want {
		t.Errorf("scalefree_trial_seconds_sum grew by %.12f s, Progress.Elapsed sums to %.12f s", sum, want)
	}
}

// noopTrial is the cheapest trial: its cost is the engine's own.
func noopTrial(context.Context, engine.Trial, *rng.RNG, struct{}) (any, error) { return nil, nil }

// TestExecuteAddsNoAllocsPerTrial: without a cache, Execute wraps no
// trial, so what it allocates beyond bare engine.RunScratch (its result
// map and Progress hook) does not grow with the number of trials.
func TestExecuteAddsNoAllocsPerTrial(t *testing.T) {
	ctx := context.Background()
	opts := engine.Options{Workers: 2}
	extra := func(n int) float64 {
		trials := makeTrials(n)
		job := testJob(trials)
		bare := testing.AllocsPerRun(20, func() {
			if _, err := engine.RunScratch(ctx, trials, opts, noScratch, noopTrial); err != nil {
				t.Fatal(err)
			}
		})
		exec := testing.AllocsPerRun(20, func() {
			if _, _, err := Execute(ctx, job, trials, opts, nil, noScratch, noopTrial); err != nil {
				t.Fatal(err)
			}
		})
		return exec - bare
	}
	small, large := extra(32), extra(256)
	t.Logf("extra allocs: %.1f at 32 trials, %.1f at 256", small, large)
	if large > small {
		t.Fatalf("Execute adds %.0f allocations over RunScratch at 32 trials and %.0f at 256: it allocates per trial", small, large)
	}
}

// TestOverBudgetLeaseMergesBalanced: a 400-trial lease of 2 KB keys,
// whose spans outgrow one SPANS line's budget, ships them on several
// and merges whole: every trial span, the worker's lease span, balanced
// stacks and no trace_dropped instant.
func TestOverBudgetLeaseMergesBalanced(t *testing.T) {
	trials := makeTrials(400)
	long := strings.Repeat("k", 2000)
	for i := range trials {
		trials[i].Key = long + strconv.Itoa(i)
	}
	if len(trials)*len(long) <= spansBudget {
		t.Fatalf("400 keys of %d bytes fit one %d-byte batch; lengthen them", len(long), spansBudget)
	}
	job := testJob(trials)
	rec := trace.New()
	rec.ProcName = "coordinator"
	addr, outcome, cancel := startCoordinator(t, []CoordJob{{Job: job, Trials: trials}},
		CoordOptions{ChunkSize: len(trials), LeaseTTL: 5 * time.Second, Trace: rec})
	defer cancel()

	wrec := trace.New()
	wrec.SetEnabled(false) // the traced LEASE line turns it on
	resolve := func(expID, fingerprint string) (*WorkerJob, error) {
		return &WorkerJob{Trials: trials, Execute: func(ctx context.Context, sub []engine.Trial) (map[int]any, Stats, error) {
			return Execute(ctx, job, sub, engine.Options{Workers: 2, Trace: wrec}, nil, noScratch, trialFn)
		}}, nil
	}
	if _, err := RunWorker(context.Background(), addr, resolve, WorkerOptions{Name: "w", Trace: wrec}); err != nil {
		t.Fatal(err)
	}
	out := <-outcome
	if out.err != nil {
		t.Fatal(out.err)
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("merged with %d records dropped", d)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type lane struct{ pid, tid int }
	depth := map[lane]int{}
	var trialSpans, leaseSpans, lossMarks int
	for _, ev := range doc.TraceEvents {
		k := lane{ev.PID, ev.TID}
		switch ev.Ph {
		case "B":
			depth[k]++
			if ev.PID == 1 && ev.Cat == "trial" {
				trialSpans++
			}
			if ev.PID == 1 && ev.Cat == "lease" {
				leaseSpans++
			}
		case "E":
			if depth[k]--; depth[k] < 0 {
				t.Fatalf("lane %v: E with no open span", k)
			}
		case "i":
			if ev.Name == "trace_dropped" {
				lossMarks++
			}
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Errorf("lane %v ends %d spans deep", k, d)
		}
	}
	if leaseSpans != 1 || lossMarks != 0 || trialSpans != len(trials) {
		t.Errorf("worker lease spans = %d, trace_dropped instants = %d, trial spans = %d; want 1, 0 and %d",
			leaseSpans, lossMarks, trialSpans, len(trials))
	}
}

// TestWorkerShipsSpansOfUnfinishedLeases: a traced worker ships a
// lease's spans when the lease fails or is revoked too, not only when it
// completes, so a worker whose last lease did not complete still leaves
// its trials in the trace. A scripted coordinator grants one traced
// four-trial lease, answers its FAIL with OK or its first PING with
// GONE, and every later NEXT with DONE; the SPANS lines it receives
// before that NEXT must hold the four trial spans and the lease span.
func TestWorkerShipsSpansOfUnfinishedLeases(t *testing.T) {
	trials := makeTrials(4)
	job := testJob(trials)
	for _, revoke := range []bool{false, true} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		received := make(chan []string, 1)
		go func() {
			var lines []string
			defer func() { received <- lines }()
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			wc := newWireConn(conn, 5*time.Second)
			defer wc.close()
			leased := false
			for {
				line, err := wc.recv()
				if err != nil {
					return
				}
				lines = append(lines, line)
				reply := "OK"
				switch verb, _ := splitMsg(line); verb {
				case "HELLO":
					reply = "OK 10"
				case "NEXT":
					reply = "DONE"
					if !leased {
						leased = true
						reply = formatLease(leaseMsg{ID: 1, ExpID: job.ExpID, Fingerprint: job.Fingerprint, Hi: len(trials), Trace: "ff"})
					}
				case "PING":
					if revoke {
						reply = "GONE"
					}
				case "SPANS":
					continue
				}
				if wc.send(reply) != nil || reply == "DONE" {
					return
				}
			}
		}()
		wrec := trace.New()
		wrec.SetEnabled(false)
		resolve := func(string, string) (*WorkerJob, error) {
			return &WorkerJob{Trials: trials, Execute: func(ctx context.Context, sub []engine.Trial) (map[int]any, Stats, error) {
				_, stats, err := Execute(ctx, job, sub, engine.Options{Workers: 1, Trace: wrec}, nil, noScratch, trialFn)
				if err == nil && revoke {
					<-ctx.Done() // held until the GONE cancels the lease
					err = ctx.Err()
				} else if err == nil {
					err = errors.New("disk on fire")
				}
				return nil, stats, err
			}}, nil
		}
		_, err = RunWorker(context.Background(), lis.Addr().String(), resolve, WorkerOptions{Name: "w", Trace: wrec, DialRetries: -1})
		lis.Close()
		lines := <-received
		if revoke != (err == nil) {
			t.Fatalf("revoke=%v: RunWorker = %v", revoke, err)
		}
		var recs []trace.Record
		for i, line := range lines {
			verb, fields := splitMsg(line)
			if verb == "NEXT" && i > 1 {
				break
			}
			if verb != "SPANS" {
				continue
			}
			n, batch, err := parseSpans(fields)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := trace.DecodeBatch(batch)
			if err != nil || len(dec) != n {
				t.Fatalf("a SPANS batch of %d records decodes to %d, %v", n, len(dec), err)
			}
			recs = append(recs, dec...)
		}
		spans := map[string]int{}
		for _, rec := range recs {
			if rec.Ph == 'B' {
				spans[rec.Cat]++
			}
		}
		if spans["trial"] != len(trials) || spans["lease"] != 1 {
			t.Errorf("revoke=%v: shipped %d trial and %d lease spans before the next NEXT, want %d and 1 (lines %q)",
				revoke, spans["trial"], spans["lease"], len(trials), lines)
		}
	}
}

// BenchmarkMetricsOverhead prices the observability layer (DESIGN.md
// §9.1): no-op trials through bare engine.RunScratch, and through
// Execute without a cache, which adds only its Progress hook (one
// histogram observation and one counter increment per trial, on the
// clock pair the engine reads anyway). The ns/trial difference is the
// per-trial metrics tax; TestExecuteAddsNoAllocsPerTrial pins that it
// allocates nothing per trial.
func BenchmarkMetricsOverhead(b *testing.B) {
	trials := makeTrials(1024)
	job := testJob(trials)
	opts := engine.Options{Workers: 4}
	variants := []struct {
		name string
		run  func() error
	}{
		{"bare", func() error {
			_, err := engine.RunScratch(context.Background(), trials, opts, noScratch, noopTrial)
			return err
		}},
		{"execute", func() error {
			_, _, err := Execute(context.Background(), job, trials, opts, nil, noScratch, noopTrial)
			return err
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trials)), "ns/trial")
		})
	}
}
