// Command sweeptrace analyzes a sweep trace file written by
// `experiments -trace` (Chrome trace-event JSON, the format Perfetto
// and chrome://tracing open directly) and answers the scheduling
// questions a timeline view makes you eyeball: where did the wall-clock
// time actually go, which lanes sat idle, which trials dominated, and
// how often did leases get stolen or retried.
//
// Usage:
//
//	sweeptrace [-top n] [-json] trace.json
//
// The report sections:
//
//   - Critical path: a backward last-finisher walk over the leaf work
//     spans inside the root sweep span. Starting from the sweep's end,
//     each step jumps to the last-finishing span at or before the
//     cursor; uncovered stretches become explicit "(idle)" segments, so
//     the segment durations sum exactly to the sweep's wall-clock time.
//     The top contributors aggregate path time by span name.
//   - Lane utilization: per (process, thread) lane, the fraction of the
//     sweep window covered by the union of that lane's spans, plus a
//     histogram of the idle gaps between them.
//   - Slowest trials: the top -top trial spans by duration, each broken
//     down into its generate/freeze/search phase children.
//   - Steals and retries: flow-event lineage (lease grants attached by
//     workers, chunk retries re-granted or abandoned) and the instant
//     markers (lease_steal, chunk_retry, reconnect, ...).
//
// Structural validation runs before any report: unbalanced begin/end
// nesting, a flow finish without a matching start, an empty trace, a
// critical path with no work segments, or a lane busier than its own
// window all exit nonzero — a trace that fails here indicates a
// recording bug, and CI runs this tool against a coordinated sweep's
// trace to pin exactly that. A lossy trace exits nonzero too: when a
// worker's span batch reached the coordinator but did not decode, the
// recorder writes a trace_dropped instant, and the spans it lost would
// show up as idle time on the critical path and the lanes.
//
// -json emits the full analysis as one JSON object instead of text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweeptrace:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	topK      int
	jsonOut   bool
	tracePath string
}

func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("sweeptrace", flag.ContinueOnError)
	fs.IntVar(&o.topK, "top", 10, "how many slowest trials and critical-path contributors to list")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the analysis as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one trace file argument, got %d", fs.NArg())
	}
	if o.topK < 1 {
		return nil, fmt.Errorf("-top must be >= 1")
	}
	o.tracePath = fs.Arg(0)
	return o, nil
}

func run(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(o.tracePath)
	if err != nil {
		return err
	}
	a, err := analyze(data)
	if err != nil {
		return err
	}
	r, err := a.report(o.topK)
	if err != nil {
		return err
	}
	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	return renderText(os.Stdout, a, r)
}

// event is one Chrome trace-event, as `experiments -trace` writes them.
type event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"` // microseconds from trace start
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	ID   string            `json:"id"`
	Args map[string]string `json:"args"`
}

// span is one reconstructed begin/end pair.
type span struct {
	Name     string
	Cat      string
	PID, TID int
	Start    int64 // µs
	End      int64 // µs
	Children []*span
}

func (s *span) dur() int64 { return s.End - s.Start }

// laneKey identifies one (process, thread) timeline lane.
type laneKey struct{ PID, TID int }

// analysis is the reconstructed trace: span forests per lane, flow
// lineage, instant markers, and the process/thread naming metadata.
type analysis struct {
	lanes     map[laneKey][]*span // top-level spans, in emission order
	procNames map[int]string
	laneNames map[laneKey]string
	flowStart map[string][]event // 's' events by flow name
	flowEnd   map[string][]event // 'f' events by flow name
	instants  map[string]int
	lossNote  string // detail of the trace_dropped instant, if any
	spanCount int
	root      *span
}

// analyze parses and structurally validates a trace file.
func analyze(data []byte) (*analysis, error) {
	var tf struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("parsing trace: %w", err)
	}
	a := &analysis{
		lanes:     map[laneKey][]*span{},
		procNames: map[int]string{},
		laneNames: map[laneKey]string{},
		flowStart: map[string][]event{},
		flowEnd:   map[string][]event{},
		instants:  map[string]int{},
	}
	stacks := map[laneKey][]*span{}
	startIDs := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		k := laneKey{ev.PID, ev.TID}
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				a.procNames[ev.PID] = ev.Args["name"]
			case "thread_name":
				a.laneNames[k] = ev.Args["name"]
			}
		case "B":
			stacks[k] = append(stacks[k], &span{Name: ev.Name, Cat: ev.Cat, PID: ev.PID, TID: ev.TID, Start: ev.TS})
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				return nil, fmt.Errorf("unbalanced trace: end event at %dµs on pid %d tid %d with no open span", ev.TS, ev.PID, ev.TID)
			}
			s := st[len(st)-1]
			stacks[k] = st[:len(st)-1]
			s.End = ev.TS
			a.spanCount++
			if len(stacks[k]) > 0 {
				parent := stacks[k][len(stacks[k])-1]
				parent.Children = append(parent.Children, s)
			} else {
				a.lanes[k] = append(a.lanes[k], s)
			}
		case "s":
			a.flowStart[ev.Name] = append(a.flowStart[ev.Name], ev)
			startIDs[ev.ID] = true
		case "f":
			a.flowEnd[ev.Name] = append(a.flowEnd[ev.Name], ev)
		case "i":
			a.instants[ev.Name]++
			if ev.Name == "trace_dropped" {
				a.lossNote = ev.Args["detail"]
			}
		}
	}
	for _, k := range sortedKeys(stacks) {
		if st := stacks[k]; len(st) > 0 {
			return nil, fmt.Errorf("unbalanced trace: %d span(s) never ended on pid %d tid %d (first: %q)", len(st), k.PID, k.TID, st[0].Name)
		}
	}
	if a.spanCount == 0 {
		return nil, fmt.Errorf("empty trace: no complete spans")
	}
	// Flow invariant: every finish must bind to an emitted start. The
	// reverse (a start the finish never reached) is legal — a worker's
	// final batch can be lost to a fault — but a finish id nobody
	// started cannot happen in a correct recording.
	flowNames := make([]string, 0, len(a.flowEnd))
	for name := range a.flowEnd {
		flowNames = append(flowNames, name)
	}
	sort.Strings(flowNames)
	for _, name := range flowNames {
		for _, ev := range a.flowEnd[name] {
			if !startIDs[ev.ID] {
				return nil, fmt.Errorf("flow %q finish id %s has no matching start", name, ev.ID)
			}
		}
	}
	a.root = a.findRoot()
	return a, nil
}

// findRoot locates the root sweep span (the control lane's outermost
// "sweep" span); traces without one — e.g. hand-assembled fixtures —
// get a synthetic root covering every span.
func (a *analysis) findRoot() *span {
	for _, s := range a.lanes[laneKey{0, 0}] {
		if s.Cat == "sweep" && s.Name == "sweep" {
			return s
		}
	}
	root := &span{Name: "sweep", Cat: "sweep"}
	first := true
	for _, k := range sortedKeys(a.lanes) {
		for _, s := range a.lanes[k] {
			if first || s.Start < root.Start {
				root.Start = s.Start
			}
			if first || s.End > root.End {
				root.End = s.End
			}
			first = false
		}
	}
	return root
}

// sortedKeys returns a lane-keyed map's keys in (pid, tid) order, so
// every walk over per-lane state is independent of map iteration order.
func sortedKeys[V any](m map[laneKey]V) []laneKey {
	keys := make([]laneKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].PID != keys[j].PID {
			return keys[i].PID < keys[j].PID
		}
		return keys[i].TID < keys[j].TID
	})
	return keys
}

// leaves collects every childless span, the units of actual work the
// critical path walks over.
func (a *analysis) leaves() []*span {
	var out []*span
	var walk func(*span)
	walk = func(s *span) {
		if len(s.Children) == 0 {
			out = append(out, s)
			return
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, k := range sortedKeys(a.lanes) {
		for _, s := range a.lanes[k] {
			walk(s)
		}
	}
	return out
}

// segment is one stretch of the critical path.
type segment struct {
	Name  string `json:"name"`
	Cat   string `json:"cat,omitempty"`
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
	Start int64  `json:"start_us"`
	End   int64  `json:"end_us"`
	Idle  bool   `json:"idle,omitempty"`
}

// criticalPath runs the backward last-finisher walk: from the root's
// end, repeatedly jump to the leaf span with the latest end at or
// before the cursor (ties broken by latest start), emitting "(idle)"
// segments for uncovered stretches. The segments partition the root
// window exactly, so their durations sum to the sweep's wall clock.
func (a *analysis) criticalPath() []segment {
	root := a.root
	if root.dur() <= 0 {
		return nil
	}
	cands := a.leaves()
	// Sort by (End, Start) so a binary search finds the last finisher
	// with the latest start among equal ends.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].End != cands[j].End {
			return cands[i].End < cands[j].End
		}
		return cands[i].Start < cands[j].Start
	})
	var rev []segment
	cur := root.End
	for cur > root.Start {
		// Last candidate with End <= cur that makes progress (Start < cur).
		i := sort.Search(len(cands), func(i int) bool { return cands[i].End > cur })
		var pick *span
		for i--; i >= 0; i-- {
			if cands[i].Start < cur && cands[i].End > root.Start {
				pick = cands[i]
				break
			}
		}
		if pick == nil {
			rev = append(rev, segment{Name: "(idle)", Start: root.Start, End: cur, Idle: true})
			break
		}
		if pick.End < cur {
			rev = append(rev, segment{Name: "(idle)", Start: pick.End, End: cur, Idle: true})
		}
		start := pick.Start
		if start < root.Start {
			start = root.Start
		}
		end := pick.End
		if end > cur {
			end = cur
		}
		rev = append(rev, segment{Name: pick.Name, Cat: pick.Cat, PID: pick.PID, TID: pick.TID, Start: start, End: end})
		cur = start
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// gapBuckets are the idle-gap histogram bounds, in µs.
var gapBuckets = []struct {
	label string
	upper int64
}{
	{"<1ms", 1_000},
	{"1-10ms", 10_000},
	{"10-100ms", 100_000},
	{">100ms", 1 << 62},
}

// laneStats is one lane's utilization summary.
type laneStats struct {
	Process     string         `json:"process"`
	Lane        string         `json:"lane"`
	PID         int            `json:"pid"`
	TID         int            `json:"tid"`
	BusyUS      int64          `json:"busy_us"`
	Utilization float64        `json:"utilization_pct"`
	Gaps        map[string]int `json:"idle_gaps"`
}

// utilization computes, per lane, the busy fraction of the sweep
// window (union of the lane's top-level spans, clipped to the window)
// and the idle-gap histogram. A lane busier than the window itself is a
// recording bug and returns an error.
func (a *analysis) utilization() ([]laneStats, error) {
	root := a.root
	window := root.dur()
	var out []laneStats
	for _, k := range sortedKeys(a.lanes) {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, s := range a.lanes[k] {
			lo, hi := s.Start, s.End
			if lo < root.Start {
				lo = root.Start
			}
			if hi > root.End {
				hi = root.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var busy int64
		gaps := map[string]int{}
		bucket := func(gap int64) {
			for _, b := range gapBuckets {
				if gap <= b.upper {
					gaps[b.label]++
					return
				}
			}
		}
		var curLo, curHi int64 = -1, -1
		for _, v := range ivs {
			if curHi < 0 {
				curLo, curHi = v.lo, v.hi
				continue
			}
			if v.lo > curHi {
				bucket(v.lo - curHi)
				busy += curHi - curLo
				curLo, curHi = v.lo, v.hi
				continue
			}
			if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi >= 0 {
			busy += curHi - curLo
		}
		ls := laneStats{
			Process: a.procNames[k.PID],
			Lane:    a.laneNames[k],
			PID:     k.PID, TID: k.TID,
			BusyUS: busy,
			Gaps:   gaps,
		}
		if window > 0 {
			ls.Utilization = 100 * float64(busy) / float64(window)
		}
		if busy > window {
			return nil, fmt.Errorf("lane pid %d tid %d busy %dµs exceeds the %dµs sweep window — overlapping or unclipped spans", k.PID, k.TID, busy, window)
		}
		out = append(out, ls)
	}
	return out, nil
}

// trialStats is one slow trial with its phase breakdown.
type trialStats struct {
	Name    string           `json:"name"`
	Process string           `json:"process"`
	Lane    string           `json:"lane"`
	DurUS   int64            `json:"dur_us"`
	Phases  map[string]int64 `json:"phases_us,omitempty"`
}

// slowestTrials returns the top-k trial spans by duration.
func (a *analysis) slowestTrials(k int) []trialStats {
	var trials []*span
	var walk func(*span)
	walk = func(s *span) {
		if s.Cat == "trial" {
			trials = append(trials, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, key := range sortedKeys(a.lanes) {
		for _, s := range a.lanes[key] {
			walk(s)
		}
	}
	sort.Slice(trials, func(i, j int) bool {
		if trials[i].dur() != trials[j].dur() {
			return trials[i].dur() > trials[j].dur()
		}
		return trials[i].Name < trials[j].Name
	})
	if len(trials) > k {
		trials = trials[:k]
	}
	out := make([]trialStats, 0, len(trials))
	for _, t := range trials {
		ts := trialStats{
			Name:    t.Name,
			Process: a.procNames[t.PID],
			Lane:    a.laneNames[laneKey{t.PID, t.TID}],
			DurUS:   t.dur(),
		}
		if len(t.Children) > 0 {
			ts.Phases = map[string]int64{}
			var covered int64
			for _, c := range t.Children {
				ts.Phases[c.Name] += c.dur()
				covered += c.dur()
			}
			if rest := t.dur() - covered; rest > 0 {
				ts.Phases["other"] = rest
			}
		}
		out = append(out, ts)
	}
	return out
}

// flowSummary is one flow family's lineage counts.
type flowSummary struct {
	Starts  int `json:"starts"`
	Ends    int `json:"ends"`
	Matched int `json:"matched"`
}

// flows summarizes each flow family: how many starts, how many ends,
// and how many distinct ids appear on both sides.
func (a *analysis) flows() map[string]flowSummary {
	names := map[string]bool{}
	for n := range a.flowStart {
		names[n] = true
	}
	for n := range a.flowEnd {
		names[n] = true
	}
	out := map[string]flowSummary{}
	for n := range names {
		ids := map[string]bool{}
		for _, ev := range a.flowStart[n] {
			ids[ev.ID] = true
		}
		matched := map[string]bool{}
		ends := 0
		for _, ev := range a.flowEnd[n] {
			ends++
			if ids[ev.ID] {
				matched[ev.ID] = true
			}
		}
		out[n] = flowSummary{Starts: len(a.flowStart[n]), Ends: ends, Matched: len(matched)}
	}
	return out
}

// contributor aggregates critical-path time by span name.
type contributor struct {
	Name  string  `json:"name"`
	US    int64   `json:"us"`
	Share float64 `json:"share_pct"`
}

// reportData is the full -json payload.
type reportData struct {
	WallClockUS  int64                  `json:"wall_clock_us"`
	Processes    map[string]string      `json:"processes"`
	SpanCount    int                    `json:"span_count"`
	CriticalPath []segment              `json:"critical_path"`
	PathWorkUS   int64                  `json:"critical_path_work_us"`
	PathIdleUS   int64                  `json:"critical_path_idle_us"`
	Contributors []contributor          `json:"top_contributors"`
	Lanes        []laneStats            `json:"lanes"`
	Slowest      []trialStats           `json:"slowest_trials"`
	Flows        map[string]flowSummary `json:"flows"`
	Instants     map[string]int         `json:"instants"`
}

// report assembles the full analysis, failing on a lossy trace and on
// the structural gates: a lane busier than the sweep window, or a
// critical path with no work.
func (a *analysis) report(topK int) (*reportData, error) {
	if a.instants["trace_dropped"] > 0 {
		return nil, fmt.Errorf("lossy trace: trace_dropped (%s); the missing spans would read as idle time", a.lossNote)
	}
	path := a.criticalPath()
	var work, idle int64
	byName := map[string]int64{}
	for _, s := range path {
		if s.Idle {
			idle += s.End - s.Start
			continue
		}
		work += s.End - s.Start
		byName[s.Name] += s.End - s.Start
	}
	contribNames := make([]string, 0, len(byName))
	for n := range byName {
		contribNames = append(contribNames, n)
	}
	sort.Strings(contribNames)
	contribs := make([]contributor, 0, len(byName))
	for _, n := range contribNames {
		c := contributor{Name: n, US: byName[n]}
		if total := work + idle; total > 0 {
			c.Share = 100 * float64(byName[n]) / float64(total)
		}
		contribs = append(contribs, c)
	}
	sort.Slice(contribs, func(i, j int) bool {
		if contribs[i].US != contribs[j].US {
			return contribs[i].US > contribs[j].US
		}
		return contribs[i].Name < contribs[j].Name
	})
	if len(contribs) > topK {
		contribs = contribs[:topK]
	}
	lanes, err := a.utilization()
	if err != nil {
		return nil, err
	}
	if work == 0 {
		return nil, fmt.Errorf("critical path is empty: no timed work spans inside the %s sweep window", us(a.root.dur()))
	}
	procNames := map[string]string{}
	for pid, name := range a.procNames {
		procNames[fmt.Sprintf("%d", pid)] = name
	}
	return &reportData{
		WallClockUS:  a.root.dur(),
		Processes:    procNames,
		SpanCount:    a.spanCount,
		CriticalPath: path,
		PathWorkUS:   work,
		PathIdleUS:   idle,
		Contributors: contribs,
		Lanes:        lanes,
		Slowest:      a.slowestTrials(topK),
		Flows:        a.flows(),
		Instants:     a.instants,
	}, nil
}

func us(v int64) string {
	return (time.Duration(v) * time.Microsecond).Round(10 * time.Microsecond).String()
}

// renderText writes the human report.
func renderText(w io.Writer, a *analysis, r *reportData) error {
	var b strings.Builder
	pids := make([]int, 0, len(a.procNames))
	for pid := range a.procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	names := make([]string, 0, len(pids))
	for _, pid := range pids {
		names = append(names, a.procNames[pid])
	}
	fmt.Fprintf(&b, "sweep: %s wall clock, %d spans across %d process(es): %s\n\n",
		us(r.WallClockUS), r.SpanCount, len(pids), strings.Join(names, ", "))

	fmt.Fprintf(&b, "critical path: %d segments, %s work (%.1f%%), %s idle (%.1f%%)\n",
		len(r.CriticalPath), us(r.PathWorkUS), 100*float64(r.PathWorkUS)/float64(r.WallClockUS),
		us(r.PathIdleUS), 100*float64(r.PathIdleUS)/float64(r.WallClockUS))
	for _, c := range r.Contributors {
		fmt.Fprintf(&b, "  %8s  %5.1f%%  %s\n", us(c.US), c.Share, c.Name)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "lane utilization (of the %s sweep window):\n", us(r.WallClockUS))
	for _, l := range r.Lanes {
		var gaps []string
		for _, bk := range gapBuckets {
			if n := l.Gaps[bk.label]; n > 0 {
				gaps = append(gaps, fmt.Sprintf("%s: %d", bk.label, n))
			}
		}
		gapStr := "no idle gaps"
		if len(gaps) > 0 {
			gapStr = "gaps " + strings.Join(gaps, ", ")
		}
		fmt.Fprintf(&b, "  %-12s %-10s %5.1f%% busy (%s), %s\n", l.Process, l.Lane, l.Utilization, us(l.BusyUS), gapStr)
	}
	b.WriteByte('\n')

	if len(r.Slowest) > 0 {
		fmt.Fprintf(&b, "slowest trials:\n")
		for i, t := range r.Slowest {
			fmt.Fprintf(&b, "  %2d. %8s  %s (%s/%s)", i+1, us(t.DurUS), t.Name, t.Process, t.Lane)
			if len(t.Phases) > 0 {
				phases := make([]string, 0, len(t.Phases))
				for _, ph := range []string{"generate", "freeze", "search", "other"} {
					if v, ok := t.Phases[ph]; ok {
						phases = append(phases, fmt.Sprintf("%s %s", ph, us(v)))
					}
				}
				// Any phases outside the canonical set, alphabetically.
				var extra []string
				for ph, v := range t.Phases {
					switch ph {
					case "generate", "freeze", "search", "other":
					default:
						extra = append(extra, fmt.Sprintf("%s %s", ph, us(v)))
					}
				}
				sort.Strings(extra)
				phases = append(phases, extra...)
				fmt.Fprintf(&b, " — %s", strings.Join(phases, ", "))
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}

	if len(r.Flows) > 0 || len(r.Instants) > 0 {
		fmt.Fprintf(&b, "steals and retries:\n")
		flowNames := make([]string, 0, len(r.Flows))
		for n := range r.Flows {
			flowNames = append(flowNames, n)
		}
		sort.Strings(flowNames)
		for _, n := range flowNames {
			f := r.Flows[n]
			fmt.Fprintf(&b, "  flow %-16s %d started, %d finished, %d matched\n", n+":", f.Starts, f.Ends, f.Matched)
		}
		instNames := make([]string, 0, len(r.Instants))
		for n := range r.Instants {
			instNames = append(instNames, n)
		}
		sort.Strings(instNames)
		for _, n := range instNames {
			fmt.Fprintf(&b, "  %-21s %d\n", n+":", r.Instants[n])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
