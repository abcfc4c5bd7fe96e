package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// jsonEvent is one Chrome trace-event. Field names follow the Trace
// Event Format; Perfetto and chrome://tracing both accept the
// {"traceEvents":[...]} envelope WriteJSON produces.
type jsonEvent struct {
	Name  string            `json:"name,omitempty"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	TS    int64             `json:"ts"` // microseconds from trace start
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	ID    string            `json:"id,omitempty"`
	Scope string            `json:"s,omitempty"`  // instant scope
	BP    string            `json:"bp,omitempty"` // flow binding point
	Args  map[string]string `json:"args,omitempty"`
}

// WriteJSON exports the merged timeline: process lane 0 is this
// process (ProcName), each merged worker gets its own process lane in
// first-arrival order. Timestamps are normalized to microseconds from
// the earliest record so the trace opens at t=0 in Perfetto.
//
// Callers must Release every Writer first; records still held by a
// live Writer are not exported.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	r.mu.Lock()
	local := append([]Record(nil), r.spill...)
	workers := append([]string(nil), r.workers...)
	merged := make([][]Record, len(r.merged))
	for i, recs := range r.merged {
		merged[i] = append([]Record(nil), recs...)
	}
	dropped := r.dropped
	procName := r.ProcName
	r.mu.Unlock()
	if procName == "" {
		procName = "sweep"
	}

	min := int64(0)
	for _, rec := range local {
		if min == 0 || (rec.TS != 0 && rec.TS < min) {
			min = rec.TS
		}
	}
	for _, recs := range merged {
		for _, rec := range recs {
			if min == 0 || (rec.TS != 0 && rec.TS < min) {
				min = rec.TS
			}
		}
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev jsonEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(raw)
		return err
	}
	meta := func(pid int, name string) error {
		return emit(jsonEvent{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": name}})
	}
	if err := meta(0, procName); err != nil {
		return err
	}
	for i, name := range workers {
		if err := meta(i+1, name); err != nil {
			return err
		}
	}
	lane := func(pid int, recs []Record) error {
		// Name each thread lane once so Perfetto sorts them stably.
		seen := map[int32]bool{}
		for _, rec := range recs {
			if seen[rec.TID] {
				continue
			}
			seen[rec.TID] = true
		}
		tids := make([]int, 0, len(seen))
		for tid := range seen {
			tids = append(tids, int(tid))
		}
		sort.Ints(tids)
		for _, tid := range tids {
			name := "worker-" + strconv.Itoa(tid)
			if tid == 0 {
				name = "control"
			}
			if err := emit(jsonEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]string{"name": name}}); err != nil {
				return err
			}
		}
		for _, rec := range recs {
			ev := jsonEvent{
				Name: rec.Name,
				Cat:  rec.Cat,
				Ph:   string(rune(rec.Ph)),
				TS:   (rec.TS - min) / 1000,
				PID:  pid,
				TID:  int(rec.TID),
			}
			switch rec.Ph {
			case 'i':
				ev.Scope = "t"
			case 's':
				ev.ID = "0x" + strconv.FormatUint(rec.ID, 16)
			case 'f':
				ev.ID = "0x" + strconv.FormatUint(rec.ID, 16)
				ev.BP = "e"
			}
			if rec.Arg != "" {
				ev.Args = map[string]string{"detail": rec.Arg}
			}
			if err := emit(ev); err != nil {
				return err
			}
		}
		return nil
	}
	if err := lane(0, local); err != nil {
		return err
	}
	for i, recs := range merged {
		if err := lane(i+1, recs); err != nil {
			return err
		}
	}
	if dropped > 0 {
		if err := emit(jsonEvent{Name: "trace_dropped", Cat: "trace", Ph: "i", TS: 0, PID: 0, TID: 0,
			Scope: "t", Args: map[string]string{"detail": fmt.Sprintf("%d records lost in worker span batches that did not decode", dropped)}}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
