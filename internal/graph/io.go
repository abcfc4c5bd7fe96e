package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteEdgeList serializes g in a line-oriented text format:
//
//	# scalefree edgelist v1
//	n <vertices> m <edges>
//	<from> <to>        (m lines, in edge order)
//
// The format preserves edge order, multi-edges, self-loops, and
// isolated vertices, so parsing the output reproduces g exactly (the
// tests' ReadEdgeList checks it).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# scalefree edgelist v1\nn %d m %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return fmt.Errorf("graph: writing header: %w", err)
	}
	// One reused line buffer instead of a string per endpoint keeps the
	// export allocation-flat at any edge count.
	line := make([]byte, 0, 32)
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.Endpoints(EdgeID(e))
		line = strconv.AppendInt(line[:0], int64(u), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(v), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("graph: writing edge %d: %w", e, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flushing edge list: %w", err)
	}
	return nil
}

// Equal reports whether two graphs are identical: same vertex count and
// the same edge sequence (order-sensitive, as edge order is part of the
// evolving-model semantics).
func Equal(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for e := 0; e < a.NumEdges(); e++ {
		au, av := a.Endpoints(EdgeID(e))
		bu, bv := b.Endpoints(EdgeID(e))
		if au != bu || av != bv {
			return false
		}
	}
	return true
}
