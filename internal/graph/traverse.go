package graph

import (
	"sync"
	"sync/atomic"

	"scalefree/internal/obs/trace"
)

// Unreachable is the distance reported by BFS for vertices not connected
// to the source.
const Unreachable int32 = -1

// BFS returns undirected hop distances from src to every vertex.
// The result is indexed 1..n; unreachable vertices get Unreachable.
func BFS(g *Graph, src Vertex) []int32 {
	dist := make([]int32, g.NumVertices()+1)
	queue := make([]Vertex, 0, g.NumVertices())
	BFSInto(g, src, dist, queue)
	return dist
}

// BFSInto is BFS with caller-provided buffers for allocation-free reuse
// across many sources. dist must have length n+1; queue is a scratch
// buffer whose contents are overwritten.
//
//sf:hotpath
func BFSInto(g *Graph, src Vertex, dist []int32, queue []Vertex) {
	if src <= 0 || int(src) > g.NumVertices() {
		panic("graph: BFS source out of range")
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, h := range g.Incident(u) {
			if dist[h.Other] == Unreachable {
				dist[h.Other] = du + 1
				queue = append(queue, h.Other)
			}
		}
	}
}

// bfsSerialFrontier is the frontier size below which a level is
// expanded inline rather than fanned out to workers: small levels
// (BFS warm-up, the tail of a component, whole tiny components) cost
// more in goroutine handoff than in work, and processing them serially
// keeps the output contract trivially intact because only one
// goroutine touches the arrays. A bottom-up level scans every vertex,
// so it is expanded inline when the graph itself is that small.
const bfsSerialFrontier = 256

// bfsBottomUpAlpha and bfsTopDownBeta steer a level-valued flood's
// direction (Beamer, Asanović & Patterson, SC 2012). A top-down level
// reads every half-edge of the frontier; a bottom-up level scans the
// unvisited vertices and stops at each one's first neighbour on the
// frontier. A flood turns bottom-up once the frontier's half-edges
// exceed the unexplored vertices' half-edges / bfsBottomUpAlpha, and
// turns top-down again, for the rest of the flood, once the frontier
// holds fewer than n / bfsTopDownBeta vertices.
const (
	bfsBottomUpAlpha = 14
	bfsTopDownBeta   = 24
)

// BFSScratch holds the reusable state of frontier-parallel traversal:
// the current/next frontier buffers and one record per worker. The
// zero value is ready to use; after a warm-up call at a given size and
// worker count, subsequent traversals allocate nothing. A scratch
// belongs to one traversal at a time (one goroutine calls in; the
// workers it fans out to are internal).
type BFSScratch struct {
	// Trace, when non-nil, records sampled frontier-level spans
	// ("bfs_level") on the traversing goroutine's trace writer;
	// TraceSample k records every k-th level (0 disables). Level spans
	// are emitted only from the barrier goroutine, never from the
	// fanned-out workers, so the writer's single-goroutine contract
	// holds.
	Trace       *trace.Writer
	TraceSample int

	frontier []Vertex
	next     []Vertex
	workers  []bfsWorker
	wg       sync.WaitGroup
	cursor   atomic.Int64

	// Per-level state read by the worker goroutines; written only
	// between level barriers. A top-down level claims chunks of
	// frontier[:work]; a bottom-up level claims chunks of the vertex
	// ids 1..work.
	g        *Graph
	target   []int32
	writeVal int32
	bottomUp bool
	work     int
	chunk    int

	// Levels expanded in each direction over the scratch's lifetime;
	// the tests read them to see that both directions ran.
	topDownLevels, bottomUpLevels int
}

// bfsWorker is one worker's slot: its owning scratch, its private
// next-frontier buffer, and a pre-bound spawn func. Spawning `go w.run()`
// directly would allocate a fresh closure per level per worker (the
// compiler wraps the receiver for newproc); binding the method value
// once and spawning `go w.spawn()` keeps steady-state traversal
// allocation-free. The padding keeps the hot, constantly-updated slice
// headers of different workers on different cache lines.
type bfsWorker struct {
	s     *BFSScratch
	next  []Vertex
	spawn func()
	_     [32]byte
}

// run claims chunks of the level's work until none remain and appends
// the vertices it settles to its private buffer.
//
// Top-down, it expands each claimed frontier vertex's incidence list.
// Discovery is settled by a compare-and-swap from Unreachable, so
// exactly one worker wins each newly reached vertex; the value written
// (the BFS level or a component label) is the same whichever worker
// wins, which is what makes the merged output independent of
// scheduling.
//
// Bottom-up, it scans the claimed vertex ids and settles each
// unvisited one at its first neighbour whose target is the current
// level. Only the claiming worker writes a vertex, so a plain atomic
// store suffices; the loads are atomic because other workers store
// level + 1 concurrently, a value no frontier test accepts.
func (w *bfsWorker) run() {
	s := w.s
	g, target, val := s.g, s.target, s.writeVal
	w.next = w.next[:0]
	chunk := s.chunk
	for {
		hi := int(s.cursor.Add(int64(chunk)))
		lo := hi - chunk
		if lo >= s.work {
			break
		}
		if hi > s.work {
			hi = s.work
		}
		if s.bottomUp {
			level := val - 1
			for v := Vertex(lo + 1); v <= Vertex(hi); v++ {
				if target[v] != Unreachable {
					continue
				}
				for _, h := range g.Incident(v) {
					if atomic.LoadInt32(&target[h.Other]) == level {
						atomic.StoreInt32(&target[v], val)
						w.next = append(w.next, v)
						break
					}
				}
			}
			continue
		}
		for _, u := range s.frontier[lo:hi] {
			for _, h := range g.Incident(u) {
				o := h.Other
				if atomic.LoadInt32(&target[o]) == Unreachable &&
					atomic.CompareAndSwapInt32(&target[o], Unreachable, val) {
					w.next = append(w.next, o)
				}
			}
		}
	}
	s.wg.Done()
}

func (s *BFSScratch) ensureWorkers(workers int) {
	if cap(s.workers) >= workers {
		s.workers = s.workers[:workers]
	} else {
		nw := make([]bfsWorker, workers)
		copy(nw, s.workers)
		for i := range nw {
			// Old spawn closures point at the old array's elements.
			nw[i].spawn = nil
		}
		s.workers = nw
	}
	for i := range s.workers {
		w := &s.workers[i]
		w.s = s
		if w.spawn == nil {
			w.spawn = w.run
		}
	}
}

// flood runs one level-synchronous flood over the undirected view,
// starting from the seeds already in s.frontier (whose target entries
// the caller has set). When levelValues is true each discovered vertex
// receives its BFS level (seed level + 1, + 2, ...); otherwise every
// vertex receives the constant val (component labelling). Top-down
// levels at or above bfsSerialFrontier vertices, and bottom-up levels
// on graphs of at least that many vertices, are fanned out to the
// workers; the rest are expanded inline.
//
// Only a level-valued flood goes bottom-up, by the bfsBottomUpAlpha
// and bfsTopDownBeta rules and at most once: its frontier is exactly
// the vertices whose target is the current level, which a constant
// label cannot tell from earlier levels. Either direction gives every
// vertex its level, so target ends the same.
func (s *BFSScratch) flood(g *Graph, target []int32, workers int, levelValues bool, val int32) {
	n := g.NumVertices()
	// mayTurn holds until the flood's bottom-up phase ends; until it
	// starts, unexplored counts the half-edges of unreached vertices.
	mayTurn := levelValues
	bottomUp := false
	frontHalves, unexplored := 0, 0
	if mayTurn {
		frontHalves = halvesOf(g, s.frontier)
		unexplored = 2*g.NumEdges() - frontHalves
	}
	level := int32(0)
	for len(s.frontier) > 0 {
		if levelValues {
			val = level + 1
		}
		switch {
		case mayTurn && !bottomUp && frontHalves > unexplored/bfsBottomUpAlpha:
			bottomUp = true
		case bottomUp && len(s.frontier) < n/bfsTopDownBeta:
			bottomUp, mayTurn = false, false
		}
		sampled := s.TraceSample > 0 && int(level)%s.TraceSample == 0
		if sampled {
			s.Trace.Begin("bfs_level", "bfs")
		}
		work := len(s.frontier)
		if bottomUp {
			work = n
			s.bottomUpLevels++
		} else {
			s.topDownLevels++
		}
		switch {
		case workers > 1 && work >= bfsSerialFrontier:
			s.ensureWorkers(workers)
			s.g, s.target, s.writeVal = g, target, val
			s.bottomUp, s.work = bottomUp, work
			s.chunk = frontierChunk(work, workers)
			s.cursor.Store(0)
			s.wg.Add(workers)
			for i := range s.workers {
				go s.workers[i].spawn()
			}
			s.wg.Wait()
			s.next = s.next[:0]
			for i := range s.workers {
				s.next = append(s.next, s.workers[i].next...)
			}
		case bottomUp:
			s.next = s.next[:0]
			for v := Vertex(1); v <= Vertex(n); v++ {
				if target[v] != Unreachable {
					continue
				}
				for _, h := range g.Incident(v) {
					if target[h.Other] == level {
						target[v] = val
						s.next = append(s.next, v)
						break
					}
				}
			}
		default:
			s.next = s.next[:0]
			for _, u := range s.frontier {
				for _, h := range g.Incident(u) {
					if target[h.Other] == Unreachable {
						target[h.Other] = val
						s.next = append(s.next, h.Other)
					}
				}
			}
		}
		if sampled {
			s.Trace.End()
		}
		if mayTurn && !bottomUp {
			frontHalves = halvesOf(g, s.next)
			unexplored -= frontHalves
		}
		s.frontier, s.next = s.next, s.frontier
		level++
	}
}

// halvesOf sums the degrees of vs: the half-edges a top-down level
// over them reads.
func halvesOf(g *Graph, vs []Vertex) int {
	sum := 0
	for _, v := range vs {
		sum += g.Degree(v)
	}
	return sum
}

// frontierChunk picks the grain workers claim from a level's work (the
// frontier top-down, the vertex ids bottom-up): small enough that
// skewed degree sums balance, large enough that the atomic claim is
// amortized.
func frontierChunk(frontier, workers int) int {
	c := frontier / (workers * 8)
	if c < 64 {
		c = 64
	}
	return c
}

// BFSParallel is BFSParallelInto with fresh buffers.
func BFSParallel(g *Graph, src Vertex, workers int) []int32 {
	dist := make([]int32, g.NumVertices()+1)
	BFSParallelInto(g, src, dist, workers, nil)
	return dist
}

// BFSParallelInto computes undirected hop distances from src exactly
// like BFSInto, but expands each BFS level with up to workers
// goroutines: the frontier is claimed in chunks, newly discovered
// vertices are settled by compare-and-swap, and per-worker
// next-frontier buffers are merged at the level barrier. Dense middle
// levels run bottom-up instead (see bfsBottomUpAlpha): workers claim
// chunks of vertex ids and settle each unvisited vertex that has a
// neighbour on the frontier. Because a vertex's distance is its BFS
// level — a property of the graph, not of visit order or direction —
// the dist array is byte-identical to serial BFSInto output for every
// worker count and schedule.
//
// dist must have length >= n+1 (every entry is overwritten, matching
// BFSInto). s may be nil (fresh buffers); passing a reused *BFSScratch
// makes steady-state traversal allocation-free. workers <= 1 runs
// serially.
//
//sf:hotpath
func BFSParallelInto(g *Graph, src Vertex, dist []int32, workers int, s *BFSScratch) {
	if src <= 0 || int(src) > g.NumVertices() {
		panic("graph: BFS source out of range")
	}
	if s == nil {
		s = &BFSScratch{}
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	s.frontier = append(s.frontier[:0], src)
	s.flood(g, dist, workers, true, 0)
}

// Eccentricity returns the maximum finite BFS distance from src, i.e.
// the eccentricity of src within its connected component.
func Eccentricity(g *Graph, src Vertex) int {
	dist := BFS(g, src)
	ecc := int32(0)
	for v := 1; v <= g.NumVertices(); v++ {
		if dist[v] > ecc {
			ecc = dist[v]
		}
	}
	return int(ecc)
}

// DoubleSweepLowerBound returns a lower bound on the diameter of src's
// component using the classic double-sweep heuristic: BFS from src,
// then BFS again from the farthest vertex found.
func DoubleSweepLowerBound(g *Graph, src Vertex) int {
	n := g.NumVertices()
	return DoubleSweepLowerBoundInto(g, src, make([]int32, n+1), make([]Vertex, 0, n))
}

// DoubleSweepLowerBoundInto is DoubleSweepLowerBound with caller-
// provided BFS buffers (BFSInto conventions) for allocation-free reuse.
//
//sf:hotpath
func DoubleSweepLowerBoundInto(g *Graph, src Vertex, dist []int32, queue []Vertex) int {
	BFSInto(g, src, dist, queue)
	far := src
	best := int32(0)
	for v := Vertex(1); v <= Vertex(g.NumVertices()); v++ {
		if dist[v] > best {
			best = dist[v]
			far = v
		}
	}
	BFSInto(g, far, dist, queue)
	ecc := int32(0)
	for v := 1; v <= g.NumVertices(); v++ {
		if dist[v] > ecc {
			ecc = dist[v]
		}
	}
	return int(ecc)
}

// ExactDiameter computes the exact diameter of a connected graph by
// all-pairs BFS. It is O(n·(n+m)) and intended for small graphs and
// tests; it returns the largest finite pairwise distance.
func ExactDiameter(g *Graph) int {
	n := g.NumVertices()
	dist := make([]int32, n+1)
	queue := make([]Vertex, 0, n)
	diam := int32(0)
	for src := Vertex(1); src <= Vertex(n); src++ {
		BFSInto(g, src, dist, queue)
		for v := 1; v <= n; v++ {
			if dist[v] > diam {
				diam = dist[v]
			}
		}
	}
	return int(diam)
}

// AverageDistanceSampled estimates the mean pairwise distance within
// src's component by running BFS from sources and averaging finite
// distances. sources must be non-empty.
func AverageDistanceSampled(g *Graph, sources []Vertex) float64 {
	n := g.NumVertices()
	return AverageDistanceSampledInto(g, sources, make([]int32, n+1), make([]Vertex, 0, n))
}

// AverageDistanceSampledInto is AverageDistanceSampled with caller-
// provided BFS buffers (BFSInto conventions) for allocation-free reuse.
func AverageDistanceSampledInto(g *Graph, sources []Vertex, dist []int32, queue []Vertex) float64 {
	if len(sources) == 0 {
		panic("graph: AverageDistanceSampled needs at least one source")
	}
	n := g.NumVertices()
	var sum float64
	var count int64
	for _, src := range sources {
		BFSInto(g, src, dist, queue)
		for v := 1; v <= n; v++ {
			if dist[v] > 0 {
				sum += float64(dist[v])
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// DoubleSweepLowerBoundParallelInto is DoubleSweepLowerBoundInto with
// both sweeps running on the frontier-parallel BFS. The dist contract
// matches BFSParallelInto; the result equals the serial double sweep
// because each sweep's dist array does.
func DoubleSweepLowerBoundParallelInto(g *Graph, src Vertex, dist []int32, workers int, s *BFSScratch) int {
	BFSParallelInto(g, src, dist, workers, s)
	far := src
	best := int32(0)
	for v := Vertex(1); v <= Vertex(g.NumVertices()); v++ {
		if dist[v] > best {
			best = dist[v]
			far = v
		}
	}
	BFSParallelInto(g, far, dist, workers, s)
	ecc := int32(0)
	for v := 1; v <= g.NumVertices(); v++ {
		if dist[v] > ecc {
			ecc = dist[v]
		}
	}
	return int(ecc)
}

// AverageDistanceSampledParallelInto is AverageDistanceSampledInto on
// the frontier-parallel BFS: identical estimate (each source's dist
// array is byte-identical to the serial one), one graph pass per
// source spread over workers goroutines.
func AverageDistanceSampledParallelInto(g *Graph, sources []Vertex, dist []int32, workers int, s *BFSScratch) float64 {
	if len(sources) == 0 {
		panic("graph: AverageDistanceSampled needs at least one source")
	}
	n := g.NumVertices()
	var sum float64
	var count int64
	for _, src := range sources {
		BFSParallelInto(g, src, dist, workers, s)
		for v := 1; v <= n; v++ {
			if dist[v] > 0 {
				sum += float64(dist[v])
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
