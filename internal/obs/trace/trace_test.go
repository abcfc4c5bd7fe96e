package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// pairCheck walks one lane's records and verifies B/E events nest and
// match exactly, returning the number of complete spans.
func pairCheck(t *testing.T, recs []Record) int {
	t.Helper()
	depth, spans := 0, 0
	for i, rec := range recs {
		switch rec.Ph {
		case 'B':
			depth++
		case 'E':
			if depth == 0 {
				t.Fatalf("record %d: E with no open span", i)
			}
			depth--
			spans++
		}
	}
	if depth != 0 {
		t.Fatalf("%d spans left open", depth)
	}
	return spans
}

func TestWriterMatchedPairsUnderOverflow(t *testing.T) {
	r := New()
	r.WriterCap = 16 // force overflow fast
	w := r.Writer()
	// Deep nesting + wide fanout, far beyond capacity: every recorded
	// B must still get its E, and suppressed regions must absorb their
	// own Ends without stealing reserved slots.
	for i := 0; i < 10; i++ {
		w.Begin("outer", "t")
		for j := 0; j < 10; j++ {
			w.Begin("inner", "t")
			w.Begin("leaf", "t")
			w.End()
			w.End()
		}
		w.End()
	}
	if w.reserved != 0 || w.suppress != 0 {
		t.Fatalf("writer not quiesced: reserved=%d suppress=%d", w.reserved, w.suppress)
	}
	if w.dropped == 0 {
		t.Fatal("overflow test never overflowed; shrink WriterCap")
	}
	r.Release(w)
	recs := r.Drain()
	if len(recs) == 0 {
		t.Fatal("nothing recorded")
	}
	if got := len(recs); got > 16 {
		t.Fatalf("recorded %d records into a 16-record writer", got)
	}
	pairCheck(t, recs)
}

// TestWriterReleaseClosesDangling: Release closes every open span and
// absorbs a suppressed one (a 4-record writer has no room for c), so
// the recycled writer starts with no span open.
func TestWriterReleaseClosesDangling(t *testing.T) {
	r := New()
	r.WriterCap = 4
	w := r.Writer()
	w.Begin("a", "t")
	w.Begin("b", "t")
	w.Begin("c", "t")
	r.Release(w)
	if spans := pairCheck(t, r.Drain()); spans != 2 {
		t.Fatalf("got %d closed spans, want 2", spans)
	}
	if w.reserved != 0 || w.suppress != 0 {
		t.Fatalf("released writer still open: reserved=%d suppress=%d", w.reserved, w.suppress)
	}
}

func TestWriterZeroAlloc(t *testing.T) {
	r := New()
	w := r.Writer()
	// Warm steady state: the recorded path and, after overflow, the
	// suppressed path must both be allocation-free.
	span := func() {
		w.Begin("trial", "t")
		w.End()
	}
	for i := 0; i < 5000; i++ {
		if allocs := testing.AllocsPerRun(1, span); allocs != 0 {
			t.Fatalf("Begin/End op %d allocated %v times, want 0", i, allocs)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	var w *Writer
	w.Begin("a", "b")
	w.End()
	if r.Writer() != nil {
		t.Fatal("nil recorder handed out a writer")
	}
	r.Release(nil)
	r.Emit(Record{Ph: 'i'})
	r.Merge("w", []Record{{Ph: 'i'}})
	r.Flush(w)
	if _, ok := r.NextFlow("k", 1); ok {
		t.Fatal("nil recorder derived a flow")
	}
	if _, ok := r.TakePending("k"); ok {
		t.Fatal("nil recorder stored a pending flow")
	}
	if r.DrainBatch(1<<10) != nil {
		t.Fatal("nil recorder encoded a batch")
	}
	r.AbandonPending()
	if r.Drain() != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder drained records")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil WriteJSON output invalid: %v", err)
	}
}

func TestDisabledRecorderDropsEverything(t *testing.T) {
	r := New()
	r.SetEnabled(false)
	if r.Writer() != nil {
		t.Fatal("disabled recorder handed out a writer")
	}
	r.Emit(Record{Ph: 'i', Name: "x"})
	if len(r.Drain()) != 0 {
		t.Fatal("disabled recorder recorded")
	}
	r.SetEnabled(true)
	r.Emit(Record{Ph: 'i', Name: "x"})
	if len(r.Drain()) != 1 {
		t.Fatal("re-enabled recorder dropped")
	}
}

func TestIDsDeterministic(t *testing.T) {
	a := LeaseContext("E4", "fp", 0, 4)
	if a != LeaseContext("E4", "fp", 0, 4) {
		t.Fatal("LeaseContext not deterministic")
	}
	if a == LeaseContext("E4", "fp", 4, 8) || a == LeaseContext("E5", "fp", 0, 4) {
		t.Fatal("LeaseContext collides across chunks")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := []Record{
		{TS: 123456789, TID: 3, Ph: 'B', Name: "E4/n=512/rep=0", Cat: "trial"},
		{TS: 123456999, TID: 3, Ph: 'E'},
		{TS: 123457000, ID: 0xdeadbeef, TID: 0, Ph: 'f', Name: "retry", Cat: "flow", Arg: "attempt=2"},
	}
	buf, dropped := EncodeBatch(in, 1<<20)
	if dropped != 0 {
		t.Fatalf("dropped %d records under a huge budget", dropped)
	}
	out, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestCodecTruncation(t *testing.T) {
	var in []Record
	for i := 0; i < 100; i++ {
		in = append(in, Record{TS: int64(i), TID: 1, Ph: 'i', Name: "instant-event", Cat: "t"})
	}
	full, _ := EncodeBatch(in, 1<<20)
	buf, dropped := EncodeBatch(in, len(full)/2)
	if dropped == 0 {
		t.Fatal("half budget dropped nothing")
	}
	out, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("truncated batch failed to decode: %v", err)
	}
	if len(out)+dropped != len(in) {
		t.Fatalf("decoded %d + dropped %d != %d", len(out), dropped, len(in))
	}
	// Oldest-first: the surviving prefix is the oldest records.
	for i := range out {
		if out[i].TS != int64(i) {
			t.Fatalf("record %d has TS %d; truncation reordered", i, out[i].TS)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeBatch([]byte{99}); err == nil {
		t.Fatal("bad version accepted")
	}
	good, _ := EncodeBatch([]Record{{TS: 1, Ph: 'B', Name: "x"}}, 1<<20)
	if _, err := DecodeBatch(good[:len(good)-1]); err == nil {
		t.Fatal("torn record accepted")
	}
	if _, err := DecodeBatch(good[:1]); err == nil {
		t.Fatal("a batch of no records accepted")
	}
	bad := append([]byte(nil), good...)
	bad[1] = 'M' // metadata: the recorder never writes it
	if _, err := DecodeBatch(bad); err == nil {
		t.Fatal("a record with phase M accepted")
	}
}

func TestWriteJSONStructure(t *testing.T) {
	r := New()
	r.ProcName = "coordinator"
	w := r.Writer()
	w.Begin("E4/n=512/rep=0", "trial")
	w.Begin("generate", "phase")
	w.End()
	w.End()
	r.Release(w)
	r.Emit(Record{Ph: 's', ID: 42, Name: "retry", Cat: "flow"})
	r.Emit(Record{Ph: 'f', ID: 42, Name: "retry", Cat: "flow"})
	r.Merge("worker-a", []Record{
		{TS: stamp(clockNow()), TID: 1, Ph: 'B', Name: "lease", Cat: "lease"},
		{TS: stamp(clockNow()), TID: 1, Ph: 'E'},
	})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
			TS   int64  `json:"ts"`
			ID   string `json:"id"`
			BP   string `json:"bp"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	var sawCoordMeta, sawWorkerMeta bool
	flows := map[string][2]int{}
	perLane := map[[2]int]int{} // (pid,tid) → B-E depth
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				if ev.PID == 0 {
					sawCoordMeta = true
				} else {
					sawWorkerMeta = true
				}
			}
		case "B":
			perLane[[2]int{ev.PID, ev.TID}]++
		case "E":
			key := [2]int{ev.PID, ev.TID}
			if perLane[key] == 0 {
				t.Fatalf("lane %v: E with no open B", key)
			}
			perLane[key]--
		case "s":
			c := flows[ev.ID]
			c[0]++
			flows[ev.ID] = c
		case "f":
			if ev.BP != "e" {
				t.Fatalf("flow f without bp=e: %+v", ev)
			}
			c := flows[ev.ID]
			c[1]++
			flows[ev.ID] = c
		}
		if ev.TS < 0 {
			t.Fatalf("negative normalized timestamp: %+v", ev)
		}
	}
	if !sawCoordMeta || !sawWorkerMeta {
		t.Fatal("missing process_name metadata for coordinator or worker")
	}
	for key, depth := range perLane {
		if depth != 0 {
			t.Fatalf("lane %v: %d spans left open", key, depth)
		}
	}
	for id, c := range flows {
		if c[0] != c[1] {
			t.Fatalf("flow %s: %d starts, %d finishes", id, c[0], c[1])
		}
	}
	if !strings.Contains(buf.String(), "coordinator") || !strings.Contains(buf.String(), "worker-a") {
		t.Fatal("process names missing from export")
	}
}

func TestPendingFlows(t *testing.T) {
	r := New()
	id, ok := r.NextFlow("E4:0:4", 99)
	if !ok {
		t.Fatal("enabled recorder derived no flow")
	}
	if again, _ := r.NextFlow("E4:0:4", 99); again == id {
		t.Fatal("NextFlow repeats an id across attempts of one key")
	}
	if got, ok := r.TakePending("E4:0:4"); !ok || got == id {
		t.Fatalf("TakePending = %d,%v, want the second attempt's id", got, ok)
	}
	if _, ok := r.TakePending("E4:0:4"); ok {
		t.Fatal("pending flow survived Take")
	}
	abandoned, _ := r.NextFlow("E5:0:4", 7)
	r.AbandonPending()
	recs := r.Drain()
	if len(recs) != 1 || recs[0].Ph != 'f' || recs[0].ID != abandoned {
		t.Fatalf("AbandonPending emitted %+v, want one 'f' with id %d", recs, abandoned)
	}
}

func TestWriterRecycling(t *testing.T) {
	r := New()
	w1 := r.Writer()
	tid := w1.tid
	r.Release(w1)
	w2 := r.Writer()
	if w2.tid != tid {
		t.Fatalf("freelist miss: tid %d then %d", tid, w2.tid)
	}
	w3 := r.Writer()
	if w3.tid == w2.tid {
		t.Fatal("two live writers share a tid")
	}
}

func TestFlushKeepsWriterWithOwner(t *testing.T) {
	r := New()
	r.WriterCap = 8
	w := r.Writer()
	w.Begin("a", "t")
	w.End()
	w.Begin("b", "t")
	w.Begin("c", "t")
	r.Flush(w) // half full, but spans are open: nothing moves
	if len(r.Drain()) != 0 {
		t.Fatal("Flush drained a writer with open spans")
	}
	w.End()
	w.End()
	r.Flush(w)
	if got := pairCheck(t, r.Drain()); got != 3 || len(w.recs) != 0 {
		t.Fatalf("Flush moved %d spans and left %d records, want 3 and 0", got, len(w.recs))
	}
	w.Begin("d", "t")
	w.End()
	r.Flush(w) // a quarter full: stays put
	if len(r.Drain()) != 0 || len(w.recs) != 2 {
		t.Fatal("Flush drained a writer less than half full")
	}
	if w2 := r.Writer(); w2 == w || w2.tid == w.tid {
		t.Fatal("a flushed writer was recycled while its owner still holds it")
	}
}

// TestCodecKeepsWholeSpans: a batch over budget drops its newest whole
// spans, keeps the End of every span it keeps (the lease span opened
// first and closed last included), and still nests.
func TestCodecKeepsWholeSpans(t *testing.T) {
	in := []Record{{TS: 1, Ph: 'f', ID: 9, Name: "lease", Cat: "flow"}, {TS: 2, Ph: 'B', Name: "lease E1[0,100)", Cat: "lease"}}
	for i := 0; i < 100; i++ {
		in = append(in,
			Record{TS: int64(10 + 4*i), TID: 1, Ph: 'B', Name: "E1/n=512/rep=" + strings.Repeat("9", i%7), Cat: "trial"},
			Record{TS: int64(11 + 4*i), TID: 1, Ph: 'B', Name: "search", Cat: "phase"},
			Record{TS: int64(12 + 4*i), TID: 1, Ph: 'E'},
			Record{TS: int64(13 + 4*i), TID: 1, Ph: 'E'})
	}
	in = append(in, Record{TS: 1000, Ph: 'E'})
	full, _ := EncodeBatch(in, 1<<20)
	for _, max := range []int{len(full) - 1, len(full) / 2, 200, 150} {
		buf, dropped := EncodeBatch(in, max)
		if len(buf) > max || dropped == 0 {
			t.Fatalf("budget %d: %d bytes, %d dropped", max, len(buf), dropped)
		}
		out, err := DecodeBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(out)+dropped != len(in) {
			t.Fatalf("budget %d: kept %d and dropped %d of %d records", max, len(out), dropped, len(in))
		}
		if out[1] != in[1] || out[len(out)-1] != in[len(in)-1] {
			t.Fatalf("budget %d: the lease span lost its Begin or its End", max)
		}
		if len(out) > 3 && out[2] != in[2] {
			t.Fatalf("budget %d: the oldest trial span was dropped before a newer one", max)
		}
		for tid := int32(0); tid < 2; tid++ {
			var lane []Record
			for _, rec := range out {
				if rec.TID == tid {
					lane = append(lane, rec)
				}
			}
			pairCheck(t, lane)
		}
	}
	if buf, dropped := EncodeBatch(in, recordOverhead); buf != nil || dropped != len(in) {
		t.Fatalf("a budget too small for any record encoded %x", buf)
	}
}

// TestDrainBatchCountsLoss: the records a worker lost, to writer
// overflow and to its batch budget, reach the coordinator's Dropped
// through the batch's trace_dropped record, which is not filed as an
// event.
func TestDrainBatchCountsLoss(t *testing.T) {
	wr := New()
	wr.WriterCap = 4
	w := wr.Writer()
	w.Begin("trial", "trial")
	w.Begin("generate", "phase")
	w.End()
	w.Begin("search", "phase") // no room: dropped
	w.End()
	w.End()
	wr.Release(w)
	for i := 0; i < 50; i++ {
		wr.Emit(Record{Ph: 'B', Name: "lease", Cat: "lease"})
		wr.Emit(Record{Ph: 'E'})
	}
	const max = 1000
	buf := wr.DrainBatch(max)
	if len(buf) > max {
		t.Fatalf("batch of %d bytes for a %d-byte budget", len(buf), max)
	}
	recs, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	lost, ok := lossCount(last)
	if !ok {
		t.Fatalf("batch ends in %+v, want its trace_dropped record", last)
	}
	if want := int64(1 + 104 - (len(recs) - 1)); lost != want {
		t.Fatalf("trace_dropped counts %d, want %d", lost, want)
	}
	coord := New()
	coord.Merge("w", recs)
	if coord.Dropped() != lost {
		t.Fatalf("Merge counted %d dropped, want %d", coord.Dropped(), lost)
	}
	var out bytes.Buffer
	if err := coord.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), `"trace_dropped"`); n != 1 {
		t.Fatalf("export holds %d trace_dropped instants, want 1", n)
	}
	if wr.DrainBatch(max) != nil {
		t.Fatal("a drained recorder shipped a second batch")
	}
}
