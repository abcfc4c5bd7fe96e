package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"regexp"

	"scalefree/internal/experiment"
	"scalefree/internal/graph"
)

// resultsDigest hashes trial results in plan order: each experiment's
// ID and trial count, then fmt %v of every positional result. It pins
// what the trials computed, not how tables render it, so a change to
// table layout leaves it alone.
func resultsDigest(ids []string, results [][]any) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	for i, id := range ids {
		fmt.Fprintf(w, "%s %d\n", id, len(results[i]))
		for _, v := range results[i] {
			fmt.Fprintf(w, "%v\n", v)
		}
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// csrDigest hashes a graph's CSR arrays as its accessors return them:
// every edge's endpoints, then every vertex's incidence list. It pins
// the generated graph, not the snapshot file's byte layout.
func csrDigest(g *graph.Graph) string {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	buf := make([]byte, 0, 16)
	put := func(vals ...uint32) {
		buf = buf[:0]
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
		w.Write(buf)
	}
	n, m := g.NumVertices(), g.NumEdges()
	put(uint32(n), uint32(m))
	for e := 0; e < m; e++ {
		from, to := g.Endpoints(graph.EdgeID(e))
		put(uint32(from), uint32(to))
	}
	for v := 1; v <= n; v++ {
		inc := g.Incident(graph.Vertex(v))
		put(uint32(len(inc)))
		for _, half := range inc {
			out := uint32(0)
			if half.Out {
				out = 1
			}
			put(uint32(half.Edge), uint32(half.Other), out)
		}
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// renderTables appends tables to buf exactly as cmd/experiments prints
// them on stdout.
func renderTables(buf *bytes.Buffer, tables []experiment.Table) error {
	for i := range tables {
		if err := tables[i].Render(buf); err != nil {
			return err
		}
	}
	return nil
}

// openedIn is genstats' snapshot-open timing, the one nondeterministic
// part of its stdout.
var openedIn = regexp.MustCompile(` \(opened in [^)]*\)`)

// stripTiming removes genstats' open timing so outputs compare exactly.
func stripTiming(out []byte) []byte {
	return openedIn.ReplaceAll(out, nil)
}
