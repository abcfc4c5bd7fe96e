package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"scalefree/internal/rng"
)

// snapshotRoundTrip writes g to a file, reopens it, and checks the
// reopened graph is indistinguishable from g across the whole Graph
// API — not just the edge list Equal covers, but incidence lists and
// degree counters, since the snapshot stores those arrays directly.
func snapshotRoundTrip(t *testing.T, g *Graph) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snap.Close() })
	got := snap.Graph()
	if !Equal(g, got) {
		t.Fatal("snapshot round trip changed the edge list")
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("round-tripped snapshot fails validation: %v", err)
	}
	for v := Vertex(1); v <= Vertex(g.NumVertices()); v++ {
		if g.Degree(v) != got.Degree(v) || g.InDegree(v) != got.InDegree(v) || g.OutDegree(v) != got.OutDegree(v) {
			t.Fatalf("vertex %d degrees changed: (%d,%d,%d) -> (%d,%d,%d)", v,
				g.Degree(v), g.InDegree(v), g.OutDegree(v),
				got.Degree(v), got.InDegree(v), got.OutDegree(v))
		}
		want, have := g.Incident(v), got.Incident(v)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("vertex %d incidence slot %d changed: %+v -> %+v", v, i, want[i], have[i])
			}
		}
	}
	return snap
}

func TestSnapshotRoundTripShapes(t *testing.T) {
	shapes := map[string]func() *Graph{
		"empty": func() *Graph {
			return (&Builder{}).Freeze()
		},
		"isolated vertices only": func() *Graph {
			b := NewBuilder(5, 0)
			b.AddVertices(5)
			return b.Freeze()
		},
		"self-loops and multi-edges": func() *Graph {
			b := NewBuilder(4, 6)
			b.AddVertices(4)
			b.AddEdge(1, 1)
			b.AddEdge(2, 3)
			b.AddEdge(2, 3)
			b.AddEdge(3, 2)
			b.AddEdge(4, 4)
			b.AddEdge(4, 1)
			return b.Freeze()
		},
		"isolated tail vertices": func() *Graph {
			b := NewBuilder(7, 2)
			b.AddVertices(7)
			b.AddEdge(1, 2)
			b.AddEdge(2, 3)
			return b.Freeze()
		},
		"single vertex single loop": func() *Graph {
			b := NewBuilder(1, 1)
			b.AddVertices(1)
			b.AddEdge(1, 1)
			return b.Freeze()
		},
	}
	for name, build := range shapes {
		t.Run(name, func(t *testing.T) {
			snapshotRoundTrip(t, build())
		})
	}
}

// TestSnapshotRoundTripRandom is the property test: random directed
// multigraphs (self-loops, parallel edges, isolated vertices all
// occur) survive the file round trip exactly.
func TestSnapshotRoundTripRandom(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 25; trial++ {
		n := r.IntRange(1, 60)
		m := r.Intn(150)
		b := NewBuilder(n, m)
		b.AddVertices(n)
		for i := 0; i < m; i++ {
			b.AddEdge(Vertex(r.IntRange(1, n)), Vertex(r.IntRange(1, n)))
		}
		snapshotRoundTrip(t, b.Freeze())
	}
}

// TestSnapshotForceCopyFallback exercises the portable decode-copy
// paths — element-wise encoding on write, read-into-memory instead of
// mmap, and per-field decoding of every section on open — which the
// little-endian unix hosts CI runs on never take naturally. The
// fallback must be byte-identical on write and graph-identical on
// read: a snapshot written on a mainstream host opens the same on a
// big-endian or mmap-less one and vice versa.
func TestSnapshotForceCopyFallback(t *testing.T) {
	r := rng.New(11)
	b := NewBuilder(40, 120)
	b.AddVertices(40)
	for i := 0; i < 120; i++ {
		b.AddEdge(Vertex(r.IntRange(1, 40)), Vertex(r.IntRange(1, 40)))
	}
	g := b.Freeze()

	var fast bytes.Buffer
	if err := WriteSnapshot(&fast, g); err != nil {
		t.Fatal(err)
	}
	prev := SetSnapshotForceCopy(true)
	defer SetSnapshotForceCopy(prev)
	var slow bytes.Buffer
	if err := WriteSnapshot(&slow, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast.Bytes(), slow.Bytes()) {
		t.Fatal("decode-copy write path produced different bytes than the zero-copy path")
	}

	// Open through the copy path (readFileFallback + element-wise
	// casts) and check the graph is operationally identical.
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := os.WriteFile(path, fast.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("copy-path open failed: %v", err)
	}
	defer snap.Close()
	got := snap.Graph()
	if !Equal(g, got) {
		t.Fatal("copy-path open changed the edge list")
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("copy-path snapshot fails validation: %v", err)
	}
	for v := Vertex(1); v <= Vertex(g.NumVertices()); v++ {
		if g.Degree(v) != got.Degree(v) || g.InDegree(v) != got.InDegree(v) || g.OutDegree(v) != got.OutDegree(v) {
			t.Fatalf("vertex %d degrees differ through copy path", v)
		}
		want, have := g.Incident(v), got.Incident(v)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("vertex %d incidence slot %d differs through copy path: %+v vs %+v", v, i, want[i], have[i])
			}
		}
	}

	// Both open modes agree with each other too.
	SetSnapshotForceCopy(false)
	direct, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if !Equal(direct.Graph(), got) {
		t.Fatal("mmap and copy opens disagree")
	}
}

// TestSnapshotBytesDeterministic: the same graph always encodes to the
// same bytes (padding included), so snapshots can be content-addressed.
func TestSnapshotBytesDeterministic(t *testing.T) {
	r := rng.New(3)
	b := NewBuilder(50, 200)
	b.AddVertices(50)
	for i := 0; i < 200; i++ {
		b.AddEdge(Vertex(r.IntRange(1, 50)), Vertex(r.IntRange(1, 50)))
	}
	g := b.Freeze()
	var one, two bytes.Buffer
	if err := WriteSnapshot(&one, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&two, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("two encodings of the same graph differ")
	}
}

func writeTestSnapshot(t *testing.T) (path string, raw []byte) {
	t.Helper()
	b := NewBuilder(6, 5)
	b.AddVertices(6)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 3)
	b.AddEdge(4, 5)
	b.AddEdge(5, 4)
	path = filepath.Join(t.TempDir(), "g.csr")
	if err := WriteSnapshotFile(path, b.Freeze()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestOpenSnapshotRejectsCorruption(t *testing.T) {
	path, raw := writeTestSnapshot(t)

	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		mutated := mutate(append([]byte(nil), raw...))
		bad := filepath.Join(t.TempDir(), "bad.csr")
		if err := os.WriteFile(bad, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := OpenSnapshot(bad); err == nil {
			snap.Close()
			t.Fatal("corrupted snapshot accepted")
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[0] ^= 0xFF; return b })
	})
	t.Run("bad version", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 99)
			binary.LittleEndian.PutUint64(b[32:], fnv1a(b[:32]))
			return b
		})
	})
	t.Run("bad half size", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 16)
			binary.LittleEndian.PutUint64(b[32:], fnv1a(b[:32]))
			return b
		})
	})
	t.Run("checksum mismatch", func(t *testing.T) {
		// Corrupt n without re-stamping the checksum.
		corrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 999)
			return b
		})
	})
	t.Run("size fields inconsistent with file size", func(t *testing.T) {
		// Re-stamped checksum, but the sections no longer fit.
		corrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 999)
			binary.LittleEndian.PutUint64(b[32:], fnv1a(b[:32]))
			return b
		})
	})
	t.Run("oversized counts", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], 1<<40)
			binary.LittleEndian.PutUint64(b[32:], fnv1a(b[:32]))
			return b
		})
	})
	t.Run("truncated header", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:snapshotHeaderSize-1] })
	})
	t.Run("truncated body", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:len(b)-4] })
	})
	t.Run("trailing garbage", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return append(b, 0, 0, 0, 0) })
	})
	t.Run("empty file", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return nil })
	})

	// The pristine file still opens after all that.
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
}

// TestSnapshotValidateCatchesBodyCorruption: header checks cannot see
// body damage; Validate must.
func TestSnapshotValidateCatchesBodyCorruption(t *testing.T) {
	_, raw := writeTestSnapshot(t)
	n, m, err := decodeHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	l := computeLayout(n, m)

	cases := map[string]int64{
		"endpoint out of range": l.fromOff,      // first edge tail -> garbage
		"offsets broken":        l.offOff + 4,   // off[1] nonzero
		"degree counter broken": l.indegOff + 4, // indeg[1] wrong
		"half inconsistent":     l.halvesOff,    // first half's edge id
	}
	rejected := func(t *testing.T, mutated []byte) {
		t.Helper()
		bad := filepath.Join(t.TempDir(), "bad.csr")
		if err := os.WriteFile(bad, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := OpenSnapshot(bad)
		if err != nil {
			// Header-level rejection is also acceptable.
			return
		}
		defer snap.Close()
		if err := snap.Validate(); err == nil {
			t.Fatal("Validate accepted corrupted body")
		}
	}
	for name, off := range cases {
		t.Run(name, func(t *testing.T) {
			mutated := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mutated[off:], 0x7F00BAD)
			rejected(t, mutated)
		})
	}

	// Swapping two half records of one vertex keeps every half
	// consistent with its edge; only the incidence-order check sees it.
	// Vertex 2 holds edges 0 and 1 (records 1 and 2); vertex 3 holds
	// edge 1, then the self-loop's Out and In halves (records 4 and 5).
	swaps := map[string][2]int64{
		"incidence out of edge order": {1, 2},
		"self-loop halves swapped":    {4, 5},
	}
	for name, pair := range swaps {
		t.Run(name, func(t *testing.T) {
			mutated := append([]byte(nil), raw...)
			a := mutated[l.halvesOff+snapshotHalfSize*pair[0]:][:snapshotHalfSize]
			b := mutated[l.halvesOff+snapshotHalfSize*pair[1]:][:snapshotHalfSize]
			var tmp [snapshotHalfSize]byte
			copy(tmp[:], a)
			copy(a, b)
			copy(b, tmp[:])
			rejected(t, mutated)
		})
	}
}

func TestSnapshotCloseIdempotent(t *testing.T) {
	path, _ := writeTestSnapshot(t)
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if snap.Graph() != nil {
		t.Fatal("closed snapshot still serves a graph")
	}
}

// TestSnapshotTraversals: the mmap-backed graph behaves identically
// under the traversal and component passes — the snapshot is not just
// Equal, it is operationally the same graph.
func TestSnapshotTraversals(t *testing.T) {
	r := rng.New(9)
	b := NewBuilder(300, 600)
	b.AddVertices(300)
	for i := 0; i < 600; i++ {
		b.AddEdge(Vertex(r.IntRange(1, 300)), Vertex(r.IntRange(1, 300)))
	}
	g := b.Freeze()
	snap := snapshotRoundTrip(t, g)
	got := snap.Graph()

	for _, src := range []Vertex{1, 7, 300} {
		want, have := BFS(g, src), BFS(got, src)
		for v := range want {
			if want[v] != have[v] {
				t.Fatalf("BFS from %d: dist[%d] = %d on snapshot, want %d", src, v, have[v], want[v])
			}
		}
	}
	wantLabels, wantCount := Components(g)
	haveLabels, haveCount := Components(got)
	if wantCount != haveCount {
		t.Fatalf("component count %d on snapshot, want %d", haveCount, wantCount)
	}
	for v := range wantLabels {
		if wantLabels[v] != haveLabels[v] {
			t.Fatalf("component label of %d: %d on snapshot, want %d", v, haveLabels[v], wantLabels[v])
		}
	}
}
