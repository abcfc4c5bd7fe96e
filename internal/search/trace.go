package search

import (
	"fmt"

	"scalefree/internal/graph"
)

// TraceKind distinguishes the two request types in a trace.
type TraceKind int

// Trace event kinds.
const (
	TraceEdgeRequest TraceKind = iota + 1
	TraceVertexRequest
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceEdgeRequest:
		return "edge"
	case TraceVertexRequest:
		return "vertex"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent records one paid oracle request.
type TraceEvent struct {
	Seq      int          // 1-based request number
	Kind     TraceKind    // edge (weak) or vertex (strong)
	Subject  graph.Vertex // the requested vertex
	Slot     int          // edge slot for weak requests, -1 for strong
	Revealed graph.Vertex // far endpoint (weak); NoVertex for strong
	Found    bool         // whether this request revealed the target
}

// EnableTrace switches on request recording. Call before searching;
// tracing costs one append per paid request.
func (o *Oracle) EnableTrace() { o.tracing = true }

// Trace returns the recorded request sequence (nil unless EnableTrace
// was called). The slice is owned by the oracle; treat it as read-only.
func (o *Oracle) Trace() []TraceEvent { return o.trace }

func (o *Oracle) record(ev TraceEvent) {
	if !o.tracing {
		return
	}
	ev.Seq = o.requests
	ev.Found = o.found
	o.trace = append(o.trace, ev)
}
