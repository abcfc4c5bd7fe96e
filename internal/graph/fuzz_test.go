package graph

import (
	"runtime/metrics"
	"slices"
	"testing"
)

// FuzzSnapshot feeds arbitrary bytes to the snapshot decoder, the
// byte-level half of OpenSnapshot, and then to Validate, the check for
// untrusted files. Seed corpora live in testdata/fuzz/FuzzSnapshot: a
// snapshot of every registered model at n <= 12, each also truncated by
// one byte, plus header-only and half-header truncations, a flipped
// header byte, a flipped body byte, and a 3-vertex graph with a
// self-loop whose Out halves carry out byte 2. For any bytes:
//   - no input panics;
//   - decoding allocates at most twice the input's own size, on the
//     decode-copy path, which allocates every section it reads;
//   - the zero-copy and decode-copy paths accept the same inputs;
//   - every half of an accepted snapshot has its raw out byte in
//     {0, 1}, since any other byte is not a Go bool;
//   - on a snapshot Validate accepts, BFSParallelInto at 1 and 2
//     workers from vertices 1 and n equals BFSInto, and
//     ComponentsParallelInto equals Components.
//
// The heap counter the allocation bound reads credits a size class's
// earlier allocations when a span is refilled, so a decode that
// allocates a few bytes can read as tens of KiB; the 1 MiB slack covers
// that, while a count field decoded without the size check would ask
// for up to 2^31 entries.
func FuzzSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prev := SetSnapshotForceCopy(true)
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		copied, copyErr := snapshotFromBytes(data, nil)
		if copyErr == nil {
			copyErr = copied.Validate()
		}
		metrics.Read(allocs)
		SetSnapshotForceCopy(prev)
		if grew := allocs[0].Value.Uint64() - before; grew > 2*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}

		s, err := snapshotFromBytes(data, nil)
		if err == nil {
			err = s.Validate()
		}
		if (err == nil) != (copyErr == nil) {
			t.Fatalf("zero-copy decode says %v, decode-copy says %v", err, copyErr)
		}
		if err != nil {
			return
		}
		g := s.Graph()
		n := g.NumVertices()
		l := computeLayout(n, g.NumEdges())
		for i := 0; i < 2*g.NumEdges(); i++ {
			if b := data[l.halvesOff+int64(snapshotHalfSize*i)+8]; b > 1 {
				t.Fatalf("Validate accepted half %d with out byte %d", i, b)
			}
		}
		if n == 0 {
			return
		}
		var sc BFSScratch
		got := make([]int32, n+1)
		for _, src := range []Vertex{1, Vertex(n)} {
			want := BFS(g, src)
			for _, workers := range []int{1, 2} {
				BFSParallelInto(g, src, got, workers, &sc)
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d src=%d: BFSParallelInto %v, BFSInto %v", workers, src, got, want)
				}
			}
		}
		wantLabels, wantCount := Components(g)
		for _, workers := range []int{1, 2} {
			count := ComponentsParallelInto(g, got, workers, &sc)
			if count != wantCount || !slices.Equal(got, wantLabels) {
				t.Fatalf("workers=%d: ComponentsParallelInto %d %v, Components %d %v", workers, count, got, wantCount, wantLabels)
			}
		}
	})
}
