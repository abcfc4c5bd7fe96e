package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
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

// TestWriterMatchedPairsUnderOverflow: a writer recording far more
// than it holds hands its records to the recorder whenever it fills, so
// every record survives, nested and oldest first.
func TestWriterMatchedPairsUnderOverflow(t *testing.T) {
	r := New()
	r.WriterCap = 16
	w := r.Writer()
	t0 := clockNow()
	var want []string // each record's name, "" for an End
	tick := 0
	begin := func(name string) {
		tick++
		w.BeginAt(t0.Add(time.Duration(tick)), name, "t")
		want = append(want, name)
	}
	end := func() {
		tick++
		w.EndAt(t0.Add(time.Duration(tick)))
		want = append(want, "")
	}
	// Deep nesting and wide fan-out, 420 records through 16 slots.
	for i := 0; i < 10; i++ {
		begin("outer")
		for j := 0; j < 10; j++ {
			begin("inner")
			begin("leaf")
			end()
			end()
		}
		end()
	}
	r.Release(w)
	recs := r.Drain()
	if len(recs) != len(want) || r.Dropped() != 0 {
		t.Fatalf("kept %d of %d records, %d dropped", len(recs), len(want), r.Dropped())
	}
	for i, rec := range recs {
		if rec.Name != want[i] || rec.TS != stamp(t0.Add(time.Duration(i+1))) {
			t.Fatalf("record %d is %q at %d, want %q at %d", i, rec.Name, rec.TS, want[i], stamp(t0.Add(time.Duration(i+1))))
		}
	}
	if spans := pairCheck(t, recs); spans != 210 {
		t.Fatalf("%d spans, want 210", spans)
	}
}

// TestWriterReleaseClosesDangling: Release closes every open span, the
// ones past a 4-record writer's capacity included, so the recycled
// writer starts with no span open.
func TestWriterReleaseClosesDangling(t *testing.T) {
	r := New()
	r.WriterCap = 4
	w := r.Writer()
	w.Begin("a", "t")
	w.Begin("b", "t")
	w.Begin("c", "t")
	r.Release(w)
	if spans := pairCheck(t, r.Drain()); spans != 3 {
		t.Fatalf("got %d closed spans, want 3", spans)
	}
	if w.open != 0 {
		t.Fatalf("released writer still has %d spans open", w.open)
	}
	w.End() // an End with no open span is ignored
	if len(w.recs) != 0 {
		t.Fatal("an End with no open span was recorded")
	}
}

// TestWriterZeroAlloc: every Begin/End that does not hand the buffer
// over allocates nothing; only a hand-over may, as the recorder's
// record list grows.
func TestWriterZeroAlloc(t *testing.T) {
	r := New()
	r.WriterCap = 64
	w := r.Writer()
	span := func() {
		w.Begin("trial", "t")
		w.End()
	}
	handOvers := 0
	for i := 0; i < 5000; i++ {
		// AllocsPerRun runs span twice, a warm-up and the measured run.
		full := cap(w.recs)-len(w.recs) < 4
		allocs := testing.AllocsPerRun(1, span)
		if full {
			handOvers++
			continue
		}
		if allocs != 0 {
			t.Fatalf("Begin/End op %d allocated %v times, want 0", i, allocs)
		}
	}
	if handOvers == 0 {
		t.Fatal("the writer never filled; lower WriterCap")
	}
	r.Release(w)
	if got := len(r.Drain()); got != 5000*4 {
		t.Fatalf("kept %d of %d records", got, 5000*4)
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
	r.Merge("w", 1, []byte{codecVersion})
	if _, ok := r.NextFlow("k", 1); ok {
		t.Fatal("nil recorder derived a flow")
	}
	if _, ok := r.TakePending("k"); ok {
		t.Fatal("nil recorder stored a pending flow")
	}
	if r.DrainBatches(1<<10) != nil {
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
	batches := EncodeBatches(in, 1<<20)
	if len(batches) != 1 || batches[0].N != len(in) {
		t.Fatalf("%d batches (%+v) under a huge budget, want one of %d records", len(batches), batches, len(in))
	}
	out, err := DecodeBatch(batches[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out, in) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	if EncodeBatches(nil, 1<<20) != nil {
		t.Fatal("no record encoded to a batch")
	}
}

// decodeAll decodes batches in order, checking that each fits max and
// holds the record count it claims.
func decodeAll(t *testing.T, batches []Batch, max int) []Record {
	t.Helper()
	var out []Record
	for i, b := range batches {
		if len(b.Data) > max {
			t.Fatalf("batch %d: %d bytes for a %d-byte budget", i, len(b.Data), max)
		}
		recs, err := DecodeBatch(b.Data)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(recs) != b.N {
			t.Fatalf("batch %d: %d records, but it claims %d", i, len(recs), b.N)
		}
		out = append(out, recs...)
	}
	return out
}

// TestEncodeBatchesSplitsWithoutLoss: records over the budget are cut
// at record boundaries into batches that each fit, oldest first, with
// none lost; a record too large for the budget gets a batch alone.
func TestEncodeBatchesSplitsWithoutLoss(t *testing.T) {
	var in []Record
	for i := 0; i < 100; i++ {
		in = append(in, Record{TS: int64(i), TID: 1, Ph: 'i', Name: "instant-event", Cat: "t", Arg: strings.Repeat("a", i%7)})
	}
	full := EncodeBatches(in, 1<<20)[0].Data
	for _, max := range []int{len(full), len(full) - 1, len(full) / 2, 200, 1 + encodedSize(in[6])} {
		batches := EncodeBatches(in, max)
		if want := (len(full) + max - 1) / max; len(batches) < want {
			t.Fatalf("budget %d: %d batches, want at least %d", max, len(batches), want)
		}
		if got := decodeAll(t, batches, max); !slices.Equal(got, in) {
			t.Fatalf("budget %d: batches decode to %d records, not the %d encoded", max, len(got), len(in))
		}
	}
	huge := []Record{in[0], {Ph: 'i', Name: strings.Repeat("x", 1000)}, in[1]}
	batches := EncodeBatches(huge, 200)
	if len(batches) != 3 || batches[1].N != 1 || len(batches[1].Data) != 1+encodedSize(huge[1]) {
		t.Fatalf("an over-budget record did not get a batch alone: %d batches", len(batches))
	}
	if got := decodeAll(t, batches[:1], 200); got[0] != huge[0] {
		t.Fatal("the record before the over-budget one was lost")
	}
	long := strings.Repeat("s", 1<<17)
	if got := encodedSize(Record{Name: long, Cat: long, Arg: long}); got != 196_632 {
		t.Fatalf("the largest record encodes to %d bytes, want 196,632", got)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeBatch([]byte{99}); err == nil {
		t.Fatal("bad version accepted")
	}
	good := EncodeBatches([]Record{{TS: 1, Ph: 'B', Name: "x"}}, 1<<20)[0].Data
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
	b := EncodeBatches([]Record{
		{TS: stamp(clockNow()), TID: 1, Ph: 'B', Name: "lease", Cat: "lease"},
		{TS: stamp(clockNow()), TID: 1, Ph: 'E'},
	}, 1<<20)[0]
	r.Merge("worker-a", b.N, b.Data)
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

// TestMergeCountsUndecodableBatch: DrainBatches ships every record of
// a worker whose writer filled many times, and Merge files them in
// order; a truncated batch, or one whose record count is wrong, files
// nothing and counts its claimed records in Dropped, which the export
// reports in one trace_dropped instant.
func TestMergeCountsUndecodableBatch(t *testing.T) {
	wr := New()
	wr.WriterCap = 4
	w := wr.Writer()
	for i := 0; i < 50; i++ {
		w.Begin("trial", "trial")
		w.Begin("search", "phase")
		w.End()
		w.End()
	}
	wr.Release(w)
	sent := slices.Clone(wr.spill)
	const max = 1000
	batches := wr.DrainBatches(max)
	if len(batches) < 2 {
		t.Fatalf("%d records shipped in %d batch of %d bytes", len(sent), len(batches), max)
	}
	if wr.DrainBatches(max) != nil {
		t.Fatal("a drained recorder shipped a second batch")
	}

	coord := New()
	for _, b := range batches {
		coord.Merge("w", b.N, b.Data)
	}
	good := batches[0]
	coord.Merge("w", good.N, good.Data[:len(good.Data)-1])
	coord.Merge("w", good.N+1, good.Data)
	coord.Merge("other", 3, []byte{codecVersion})
	if d := coord.Dropped(); d != int64(2*good.N+1+3) {
		t.Fatalf("Dropped = %d, want %d", d, 2*good.N+1+3)
	}
	if len(coord.workers) != 1 || !slices.Equal(coord.merged[0], sent) {
		t.Fatalf("merged %d lanes; want one holding exactly the %d records shipped", len(coord.workers), len(sent))
	}
	var out bytes.Buffer
	if err := coord.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), `"trace_dropped"`); n != 1 {
		t.Fatalf("export holds %d trace_dropped instants, want 1", n)
	}
}
