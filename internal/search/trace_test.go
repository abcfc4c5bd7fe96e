package search

import (
	"testing"

	"scalefree/internal/rng"
)

func TestTraceRecordsPaidRequestsOnly(t *testing.T) {
	g := pathGraph(4)
	o, err := NewOracle(g, 1, 4, Weak)
	if err != nil {
		t.Fatal(err)
	}
	o.EnableTrace()
	if _, _, err := o.RequestEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.RequestEdge(1, 0); err != nil { // cached: free
		t.Fatal(err)
	}
	if _, _, err := o.RequestEdge(2, 1); err != nil {
		t.Fatal(err)
	}
	trace := o.Trace()
	if len(trace) != 2 {
		t.Fatalf("trace has %d events, want 2 (cached re-read must not record)", len(trace))
	}
	if trace[0].Seq != 1 || trace[1].Seq != 2 {
		t.Errorf("trace sequence numbers: %+v", trace)
	}
	if trace[0].Kind != TraceEdgeRequest || trace[0].Subject != 1 || trace[0].Revealed != 2 {
		t.Errorf("first event = %+v", trace[0])
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	g := pathGraph(3)
	o, err := NewOracle(g, 1, 3, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.RequestEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if o.Trace() != nil {
		t.Error("trace recorded without EnableTrace")
	}
}

func TestTraceMarksTargetReveal(t *testing.T) {
	g := pathGraph(3)
	o, err := NewOracle(g, 1, 3, Weak)
	if err != nil {
		t.Fatal(err)
	}
	o.EnableTrace()
	if _, err := (&Flood{}).Search(o, rng.New(1), 0); err != nil {
		t.Fatal(err)
	}
	trace := o.Trace()
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	last := trace[len(trace)-1]
	if !last.Found {
		t.Errorf("last event should mark the target reveal: %+v", last)
	}
	for _, ev := range trace[:len(trace)-1] {
		if ev.Found {
			t.Errorf("premature found flag: %+v", ev)
		}
	}
}

func TestTraceStrongModel(t *testing.T) {
	g := starGraph(5)
	o, err := NewOracle(g, 2, 4, Strong)
	if err != nil {
		t.Fatal(err)
	}
	o.EnableTrace()
	if _, _, err := o.RequestVertex(2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.RequestVertex(1); err != nil {
		t.Fatal(err)
	}
	trace := o.Trace()
	if len(trace) != 2 {
		t.Fatalf("trace = %+v", trace)
	}
	if trace[0].Kind != TraceVertexRequest || trace[0].Slot != -1 {
		t.Errorf("strong event malformed: %+v", trace[0])
	}
	if !trace[1].Found {
		t.Error("hub request should reveal the target")
	}
}

func TestTraceKindString(t *testing.T) {
	if TraceEdgeRequest.String() != "edge" || TraceVertexRequest.String() != "vertex" {
		t.Error("trace kind names wrong")
	}
	if TraceKind(9).String() == "" {
		t.Error("unknown kind stringer empty")
	}
}
