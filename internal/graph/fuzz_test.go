package graph

import (
	"runtime/metrics"
	"slices"
	"testing"

	"scalefree/internal/rng"
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

// FuzzSampledDistance holds the bit-parallel sampled mean distance to
// the per-source reference, AverageDistanceSampledInto. The input
// decodes (decodeDistanceInput) to a multigraph of 1–600 vertices,
// self-loops, parallel edges and several components allowed, and to
// 1–20 sources, repeats allowed. For any input:
//   - at workers 1, 2 and 3, the pass returns the reference's float
//     exactly, on one scratch reused first on a larger graph, two
//     bridged copies of the input with 2–40 sources, then on the input;
//   - dist is neither read nor written;
//   - a source of 0 or n+1 panics with BFSParallelInto's message.
//
// The seeds are a random multigraph at the size cap with 20 sources, a
// graph of two components plus an isolated source, a star whose hub
// turns the first level bottom-up, a long path that stays top-down,
// and a single vertex.
func FuzzSampledDistance(f *testing.F) {
	for _, seed := range distanceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, sources := decodeDistanceInput(data)
		n := g.NumVertices()
		big, bigSources := bridgedCopies(g, sources)
		want := AverageDistanceSampledInto(g, sources, make([]int32, n+1), make([]Vertex, 0, n))
		bigWant := AverageDistanceSampledInto(big, bigSources, make([]int32, 2*n+1), make([]Vertex, 0, 2*n))

		dist := make([]int32, n+1)
		for v := range dist {
			dist[v] = int32(v) ^ 0x5a5a
		}
		pristine := slices.Clone(dist)
		var s BFSScratch
		for _, workers := range []int{1, 2, 3} {
			if got := AverageDistanceSampledParallelInto(big, bigSources, nil, workers, &s); got != bigWant {
				t.Fatalf("workers=%d, bridged copies (n=%d, %d sources): mean %v, reference %v",
					workers, 2*n, len(bigSources), got, bigWant)
			}
			if got := AverageDistanceSampledParallelInto(g, sources, dist, workers, &s); got != want {
				t.Fatalf("workers=%d, n=%d, sources %v: mean %v, reference %v", workers, n, sources, got, want)
			}
		}
		if !slices.Equal(dist, pristine) {
			t.Fatal("the pass wrote dist")
		}
		for _, bad := range []Vertex{0, Vertex(n + 1)} {
			func() {
				defer func() {
					if r := recover(); r != "graph: BFS source out of range" {
						t.Errorf("source %d: recovered %v, want the out-of-range panic", bad, r)
					}
				}()
				AverageDistanceSampledParallelInto(g, append(slices.Clone(sources), bad), dist, 2, &s)
			}()
		}
	})
}

// decodeDistanceInput turns fuzz bytes into a graph and its sources,
// reading missing bytes as zero: n = 1 + (2 bytes, little-endian) mod
// 600; k = 1 + (1 byte) mod 20 sources, each 1 + (2 bytes) mod n; then
// edges of 3 bytes each until the input ends, at most 4,000, whose
// endpoints are 1 + (12 bits) mod n, the low 8 bits in the first and
// second byte and the high 4 in the third byte's low and high nibble.
func decodeDistanceInput(data []byte) (*Graph, []Vertex) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + (at(0)|at(1)<<8)%600
	sources := make([]Vertex, 1+at(2)%20)
	for i := range sources {
		sources[i] = Vertex(1 + (at(3+2*i)|at(4+2*i)<<8)%n)
	}
	rest := data[min(len(data), 3+2*len(sources)):]
	m := min(len(rest)/3, 4000)
	b := NewBuilder(n, m)
	b.AddVertices(n)
	for i := 0; i < m; i++ {
		e := rest[3*i : 3*i+3]
		u := int(e[0]) | int(e[2]&0x0f)<<8
		v := int(e[1]) | int(e[2]>>4)<<8
		b.AddEdge(Vertex(1+u%n), Vertex(1+v%n))
	}
	return b.Freeze(), sources
}

// encodeDistanceInput is decodeDistanceInput's inverse for n <= 600
// and 1–20 sources.
func encodeDistanceInput(g *Graph, sources []Vertex) []byte {
	n := g.NumVertices() - 1
	data := []byte{byte(n), byte(n >> 8), byte(len(sources) - 1)}
	for _, src := range sources {
		data = append(data, byte(src-1), byte((src-1)>>8))
	}
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.Endpoints(EdgeID(e))
		data = append(data, byte(u-1), byte(v-1), byte((u-1)>>8)|byte((v-1)>>8)<<4)
	}
	return data
}

// bridgedCopies returns two copies of g, the second on vertices
// n+1..2n, joined by an edge between n and n+1, and the sources in
// both copies.
func bridgedCopies(g *Graph, sources []Vertex) (*Graph, []Vertex) {
	n := Vertex(g.NumVertices())
	b := NewBuilder(int(2*n), 2*g.NumEdges()+1)
	b.AddVertices(int(2 * n))
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.Endpoints(EdgeID(e))
		b.AddEdge(u, v)
		b.AddEdge(u+n, v+n)
	}
	b.AddEdge(n, n+1)
	both := slices.Clone(sources)
	for _, src := range sources {
		both = append(both, src+n)
	}
	return b.Freeze(), both
}

// distanceSeeds are FuzzSampledDistance's seed inputs.
func distanceSeeds() [][]byte {
	r := rng.New(34)
	random := randomMultigraph(r, 600, 1100)
	twenty := make([]Vertex, 20)
	for i := range twenty {
		twenty[i] = Vertex(r.IntRange(1, 600))
	}
	twenty[19] = twenty[3]

	// Two components, a random multigraph on 1..200 and a path on
	// 201..299, and vertex 300 isolated.
	b := NewBuilder(300, 500)
	b.AddVertices(300)
	for i := 0; i < 400; i++ {
		b.AddEdge(Vertex(r.IntRange(1, 200)), Vertex(r.IntRange(1, 200)))
	}
	for v := Vertex(201); v < 299; v++ {
		b.AddEdge(v, v+1)
	}
	twoParts := b.Freeze()

	b = NewBuilder(401, 400)
	b.AddVertices(401)
	for v := Vertex(2); v <= 401; v++ {
		b.AddEdge(v, 1)
	}
	star := b.Freeze()

	return [][]byte{
		encodeDistanceInput(random, twenty),
		encodeDistanceInput(twoParts, []Vertex{300, 5, 250, 5, 120, 299, 300, 17, 201}),
		encodeDistanceInput(star, []Vertex{1, 2, 400, 1}),
		encodeDistanceInput(buildPath(500), []Vertex{1, 250, 500}),
		encodeDistanceInput(buildPath(1), []Vertex{1}),
	}
}
