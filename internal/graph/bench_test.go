// Benchmarks of traversal and the snapshot format on Móri graphs. This
// lives in an external test package so it can import internal/mori
// (which itself imports internal/graph) without a cycle.
package graph_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// BenchmarkBFS measures one full-graph traversal of a single
// giant-component Móri graph, serial and frontier-parallel (DESIGN.md
// §8.3): same dist output (byte-identical by construction). The
// acceptance target is >= 3× for workers=8 over workers=1 on a machine
// with >= 8 cores; workers=1 expands every level inline, bottom-up
// levels included, so it is the single-thread baseline of the same
// algorithm, and the serial arm is the top-down BFSInto. -short drops
// to a smoke size for CI.
func BenchmarkBFS(b *testing.B) {
	n := 1 << 22
	if testing.Short() {
		n = 1 << 16
	}
	cfg := mori.Config{N: n, M: 2, P: 0.5}
	g, err := cfg.Generate(rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	dist := make([]int32, g.NumVertices()+1)
	b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
		queue := make([]graph.Vertex, 0, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			graph.BFSInto(g, 1, dist, queue)
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(b *testing.B) {
			var s graph.BFSScratch
			graph.BFSParallelInto(g, 1, dist, workers, &s) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.BFSParallelInto(g, 1, dist, workers, &s)
			}
		})
	}
}

// BenchmarkSnapshotOpen is the snapshot format's reason to exist in
// numbers (DESIGN.md §8.2): opening a frozen binary CSR snapshot
// (header validation + mmap, O(1) in the graph size) versus re-parsing
// the equivalent text edge list (O(m) with integer parsing and CSR
// reconstruction). The acceptance target at 2^24 edges is >= 100×. The
// write half is benchmarked too: the freeze cost a pipeline pays once
// per graph. -short drops to a smoke size for CI.
func BenchmarkSnapshotOpen(b *testing.B) {
	n := 1 << 22 // m = 4·n = 2^24 edges
	if testing.Short() {
		n = 1 << 14
	}
	cfg := mori.Config{N: n, M: 4, P: 0.5}
	g, err := cfg.Generate(rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	snapPath := filepath.Join(dir, "g.csr")
	edgePath := filepath.Join(dir, "g.edges")
	if err := graph.WriteSnapshotFile(snapPath, g); err != nil {
		b.Fatal(err)
	}
	ef, err := os.Create(edgePath)
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteEdgeList(ef, g); err != nil {
		b.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		b.Fatal(err)
	}
	m := g.NumEdges()

	b.Run(fmt.Sprintf("open-snapshot/m=%d", m), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap, err := graph.OpenSnapshot(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			if snap.Graph().NumEdges() != m {
				b.Fatal("wrong edge count")
			}
			snap.Close()
		}
	})
	b.Run(fmt.Sprintf("read-edgelist/m=%d", m), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(edgePath)
			if err != nil {
				b.Fatal(err)
			}
			parsed, err := graph.ReadEdgeList(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if parsed.NumEdges() != m {
				b.Fatal("wrong edge count")
			}
		}
	})
	b.Run(fmt.Sprintf("write-snapshot/m=%d", m), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := graph.WriteSnapshotFile(snapPath, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
