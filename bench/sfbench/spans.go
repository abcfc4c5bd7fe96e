package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"scalefree/internal/obs/trace"
)

// lane records the harness's own spans on one lane of a recorder. The
// span category names the layer the span's self time belongs to. A
// nil recorder records nothing, so untraced passes run the same code.
type lane struct {
	rec *trace.Recorder
	tid int32
}

func (l lane) begin(name, layer string) {
	l.rec.Emit(trace.Record{Ph: 'B', TID: l.tid, Name: name, Cat: layer})
}

func (l lane) end() { l.rec.Emit(trace.Record{Ph: 'E', TID: l.tid}) }

// Harness span categories that are not layers of their own: the root
// span sweeptrace expects, and the control-lane windows in which the
// engine runs trials while the harness goroutine waits.
const (
	catRoot       = "sweep"
	catExecute    = "sweep.execute"
	catCoordinate = "sweep.coordinate"
)

// span is one matched begin/end pair.
type span struct {
	name, cat  string
	tid        int32
	start, end int64 // trace clock, ns
	child      int64 // ns covered by direct children
	depth      int
}

func (s span) dur() int64 { return s.end - s.start }

// layerOf maps a span to the layer its self time is charged to. Trial
// and phase spans come from the engine and core; every other span is
// the harness's own and carries its layer as the category.
func layerOf(s span) string {
	switch s.cat {
	case "trial":
		if strings.HasSuffix(s.name, "/bound") || strings.HasPrefix(s.name, "E4a/") || strings.HasPrefix(s.name, "E4b/") {
			return "equivalence.mc"
		}
		return "experiment.trial_other"
	case "phase":
		switch s.name {
		case "generate":
			return "model.generate"
		case "freeze":
			return "search.oracle"
		case "search":
			return "search.search"
		}
		return "phase." + s.name
	case "bfs":
		return "search.search"
	}
	return s.cat
}

// split is the per-layer view of one traced pass.
type split struct {
	self    map[string]float64 // seconds of self time, by layer
	trials  []float64          // trial span durations, seconds
	busy    float64            // summed trial durations, seconds
	tail    float64            // summed per-window tails, seconds
	util    float64            // trial time over lane capacity in the windows
	dropped int64              // records the recorder dropped
}

// analyze rebuilds the spans of a drained recorder and splits their
// time by layer. Self time is a span's duration minus the time its
// direct children cover. It fails when the stream does not nest, or
// when on any lane the self times do not add up to the time the lane
// was busy — both mean records were lost or mis-nested.
func analyze(recs []trace.Record) (*split, error) {
	spans, err := buildSpans(recs)
	if err != nil {
		return nil, err
	}
	if err := checkLanes(spans); err != nil {
		return nil, err
	}
	s := &split{self: map[string]float64{}}
	var windows, trials []span
	for _, sp := range spans {
		s.self[layerOf(sp)] += float64(sp.dur()-sp.child) / 1e9
		switch sp.cat {
		case "trial":
			trials = append(trials, sp)
			s.trials = append(s.trials, float64(sp.dur())/1e9)
			s.busy += float64(sp.dur()) / 1e9
		case catExecute, catCoordinate:
			windows = append(windows, sp)
		}
	}
	// Each window is one experiment (or one coordinated sweep). Its
	// tail runs from the first lane's last trial to the window's end:
	// the stretch in which some lane had no trial left to take.
	var capacity, inWindows float64
	for _, w := range windows {
		last := map[int32]int64{}
		for _, t := range trials {
			if t.start >= w.start && t.end <= w.end {
				last[t.tid] = max(last[t.tid], t.end)
				inWindows += float64(t.dur()) / 1e9
			}
		}
		if len(last) == 0 {
			continue
		}
		first := int64(math.MaxInt64)
		for _, end := range last {
			first = min(first, end)
		}
		s.tail += float64(w.end-first) / 1e9
		capacity += float64(len(last)) * float64(w.dur()) / 1e9
	}
	if capacity > 0 {
		s.util = inWindows / capacity
	}
	return s, nil
}

func buildSpans(recs []trace.Record) ([]span, error) {
	stacks := map[int32][]int{}
	var spans []span
	for _, r := range recs {
		switch r.Ph {
		case 'B':
			st := stacks[r.TID]
			spans = append(spans, span{name: r.Name, cat: r.Cat, tid: r.TID, start: r.TS, depth: len(st)})
			stacks[r.TID] = append(st, len(spans)-1)
		case 'E':
			st := stacks[r.TID]
			if len(st) == 0 {
				return nil, fmt.Errorf("trace lane %d: span end without a begin", r.TID)
			}
			i := st[len(st)-1]
			stacks[r.TID] = st[:len(st)-1]
			spans[i].end = r.TS
			if len(st) > 1 {
				spans[st[len(st)-2]].child += spans[i].dur()
			}
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			return nil, fmt.Errorf("trace lane %d: %d spans never ended", tid, len(st))
		}
	}
	return spans, nil
}

// checkLanes requires, per lane, that the summed self times are within
// 5% of the lane's busy time, the union of all its span intervals.
func checkLanes(spans []span) error {
	type laneAcc struct {
		self int64
		ivs  [][2]int64
	}
	lanes := map[int32]*laneAcc{}
	for _, s := range spans {
		if s.dur() < 0 || s.child > s.dur() {
			return fmt.Errorf("trace lane %d: span %q has children outside it", s.tid, s.name)
		}
		a := lanes[s.tid]
		if a == nil {
			a = &laneAcc{}
			lanes[s.tid] = a
		}
		a.self += s.dur() - s.child
		a.ivs = append(a.ivs, [2]int64{s.start, s.end})
	}
	for tid, a := range lanes {
		sort.Slice(a.ivs, func(i, j int) bool { return a.ivs[i][0] < a.ivs[j][0] })
		var busy, hi int64
		hi = math.MinInt64
		for _, iv := range a.ivs {
			switch {
			case iv[0] >= hi:
				busy += iv[1] - iv[0]
				hi = iv[1]
			case iv[1] > hi:
				busy += iv[1] - hi
				hi = iv[1]
			}
		}
		if diff := a.self - busy; diff > busy/20 || -diff > busy/20 {
			return fmt.Errorf("trace lane %d: layer self times sum to %.6fs but the lane was busy %.6fs", tid, float64(a.self)/1e9, float64(busy)/1e9)
		}
	}
	return nil
}

// metrics turns a split into per-layer metrics: every layer's self
// time as <layer>_s, plus the engine's trial statistics.
func (s *split) metrics() map[string]float64 {
	m := map[string]float64{}
	for layer, v := range s.self {
		m[layer+"_s"] = v
	}
	m["engine.busy_s"] = s.busy
	m["engine.trials"] = float64(len(s.trials))
	m["engine.trial_p50_ms"] = 1e3 * percentile(s.trials, 0.50)
	m["engine.trial_p99_ms"] = 1e3 * percentile(s.trials, 0.99)
	m["engine.trial_max_ms"] = 1e3 * percentile(s.trials, 1)
	m["engine.tail_s"] = s.tail
	m["engine.lane_util"] = s.util
	m["trace.dropped"] = float64(s.dropped)
	if s.busy > 0 {
		m["search.share"] = s.self["search.search"] / s.busy
	}
	return m
}

// percentile is the nearest-rank p-quantile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// finishTrace fails on dropped records, writes the pass's timeline to
// path as Chrome trace-event JSON, and returns its layer split. Spans
// stay in memory until here, so the file is written once per pass.
func finishTrace(rec *trace.Recorder, path string) (*split, error) {
	dropped := rec.Dropped()
	if dropped > 0 {
		return nil, fmt.Errorf("the trace dropped %d records; the per-layer split would be partial", dropped)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	s, err := analyze(rec.Drain())
	if err != nil {
		return nil, err
	}
	s.dropped = dropped
	return s, nil
}

// checkTraceFile requires cmd/sweeptrace to accept the written trace:
// its structural gates reject unbalanced nesting, empty critical paths
// and lanes busier than their window.
func (b *bench) checkTraceFile(ctx context.Context) error {
	if _, err := b.exec(ctx, "sweeptrace", b.traceFile); err != nil {
		return fmt.Errorf("sweeptrace rejected %s: %w", b.traceFile, err)
	}
	fmt.Fprintf(b.log, "sfbench: trace written to %s\n", b.traceFile)
	return nil
}

// medians reduces per-pass metric maps to the median of each metric.
func medians(passes []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// alternate runs an untraced and then a traced in-process pass,
// repeating the pair until the window has passed. pass records into
// rec when rec is non-nil and returns the pass's wall time and, when
// traced, its per-layer metrics. The result is the median of each
// per-layer metric over the traced passes, plus trace.overhead_frac
// (traced ÷ untraced median wall − 1) and bench.driver_skew (untraced
// median ÷ the CLI's wall, cliWall).
func (b *bench) alternate(ctx context.Context, cliWall time.Duration, pass func(i int, rec *trace.Recorder) (time.Duration, map[string]float64, error)) (map[string]float64, error) {
	var plain, traced []float64
	var passes []map[string]float64
	err := b.repeat(ctx, 1, func(i int) error {
		for _, on := range []bool{false, true} {
			var rec *trace.Recorder
			if on {
				rec = trace.New()
			}
			wall, m, err := pass(i, rec)
			if err != nil {
				return err
			}
			if on {
				traced = append(traced, wall.Seconds())
				passes = append(passes, m)
			} else {
				plain = append(plain, wall.Seconds())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := medians(passes)
	m["trace.overhead_frac"] = median(traced)/median(plain) - 1
	m["bench.driver_skew"] = median(plain) / cliWall.Seconds()
	return m, nil
}
