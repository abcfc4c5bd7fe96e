package graph

import (
	"sync"
	"sync/atomic"
)

// Unreachable is the distance the BFS passes report for vertices not
// connected to the source.
const Unreachable int32 = -1

// BFSInto computes undirected hop distances from src to every vertex
// into caller-provided buffers, for allocation-free reuse across many
// sources. dist must have length n+1 and is indexed 1..n; unreachable
// vertices get Unreachable. queue is a scratch buffer whose contents
// are overwritten.
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

// bfsBlock is the number of settled vertices a worker collects before
// it copies them into the queue.
const bfsBlock = 1024

// BFSScratch holds the reusable state of frontier-parallel traversal:
// the queue of settled vertices, sized for the largest graph seen, and
// one record per worker. The zero value is ready to use; after a
// warm-up call at a given size and worker count, subsequent traversals
// allocate nothing, however a level's work splits between the workers.
// A scratch belongs to one traversal at a time (one goroutine calls
// in; the workers it fans out to are internal).
type BFSScratch struct {
	// queue holds a flood's vertices in the order they are settled,
	// level after level, as in a serial BFS queue: a flood settles each
	// vertex once, so n entries hold every level. frontier is the
	// current level's run of it; the next level is written right after.
	queue    []Vertex
	frontier []Vertex
	workers  []bfsWorker
	wg       sync.WaitGroup
	cursor   atomic.Int64
	// tail is the end of the queue entries that a fanned-out level's
	// workers have reserved.
	tail atomic.Int64

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

// bfsWorker is one worker's slot: its owning scratch, the block of
// vertices it has settled but not yet copied into the queue, and a
// pre-bound spawn func. Spawning `go w.run()` directly would allocate
// a fresh closure per level per worker (the compiler wraps the
// receiver for newproc); binding the method value once and spawning
// `go w.spawn()` keeps steady-state traversal allocation-free. The
// block has a fixed size, so no share of a level, however large, makes
// a worker allocate.
type bfsWorker struct {
	s     *BFSScratch
	spawn func()
	n     int // vertices held in block
	block [bfsBlock]Vertex
}

// run claims chunks of the level's work until none remain and hands
// the vertices it settles to the queue, after the frontier.
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
	w.n = 0
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
						w.push(v)
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
					w.push(o)
				}
			}
		}
	}
	w.flush()
	s.wg.Done()
}

// push adds one settled vertex to the worker's block, flushing a full
// block first.
func (w *bfsWorker) push(v Vertex) {
	if w.n == bfsBlock {
		w.flush()
	}
	w.block[w.n] = v
	w.n++
}

// flush reserves room for the block at the queue's tail and copies it
// there. A flood settles every vertex once, so the reservations never
// outrun the queue.
func (w *bfsWorker) flush() {
	s := w.s
	end := int(s.tail.Add(int64(w.n)))
	copy(s.queue[end-w.n:end], w.block[:w.n])
	w.n = 0
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

// seed starts a flood over an n-vertex graph from v alone, first
// giving the queue room for every vertex, so that no level can
// outgrow it. The caller sets v's target entry.
func (s *BFSScratch) seed(n int, v Vertex) {
	if len(s.queue) < n {
		s.queue = make([]Vertex, n)
	}
	s.queue[0] = v
	s.frontier = s.queue[:1]
}

// flood runs one level-synchronous flood over the undirected view,
// starting from the vertex seed put in the queue. When levelValues is
// true each discovered vertex receives its BFS level (seed level + 1,
// + 2, ...); otherwise every vertex receives the constant val
// (component labelling). Each level is written into the queue right
// after the frontier and becomes the next frontier. Top-down levels at
// or above bfsSerialFrontier vertices, and bottom-up levels on graphs
// of at least that many vertices, are fanned out to the workers; the
// rest are expanded inline.
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
	tail := len(s.frontier) // seed puts the frontier at the queue's head
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
		work := len(s.frontier)
		if bottomUp {
			work = n
			s.bottomUpLevels++
		} else {
			s.topDownLevels++
		}
		// next appends in place: the queue has room for every vertex.
		next := s.queue[tail:tail]
		switch {
		case workers > 1 && work >= bfsSerialFrontier:
			s.ensureWorkers(workers)
			s.g, s.target, s.writeVal = g, target, val
			s.bottomUp, s.work = bottomUp, work
			s.chunk = frontierChunk(work, workers)
			s.cursor.Store(0)
			s.tail.Store(int64(tail))
			s.wg.Add(workers)
			for i := range s.workers {
				go s.workers[i].spawn()
			}
			s.wg.Wait()
			next = s.queue[tail:s.tail.Load()]
		case bottomUp:
			for v := Vertex(1); v <= Vertex(n); v++ {
				if target[v] != Unreachable {
					continue
				}
				for _, h := range g.Incident(v) {
					if target[h.Other] == level {
						target[v] = val
						next = append(next, v)
						break
					}
				}
			}
		default:
			for _, u := range s.frontier {
				for _, h := range g.Incident(u) {
					if target[h.Other] == Unreachable {
						target[h.Other] = val
						next = append(next, h.Other)
					}
				}
			}
		}
		if mayTurn && !bottomUp {
			frontHalves = halvesOf(g, next)
			unexplored -= frontHalves
		}
		s.frontier = next
		tail += len(next)
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

// BFSParallelInto computes undirected hop distances from src exactly
// like BFSInto, but expands each BFS level with up to workers
// goroutines: the frontier is claimed in chunks, newly discovered
// vertices are settled by compare-and-swap, and each worker copies
// them, a fixed-size block at a time, into the queue after the
// frontier.
// Dense middle levels run bottom-up instead (see bfsBottomUpAlpha):
// workers claim chunks of vertex ids and settle each unvisited vertex
// that has a neighbour on the frontier. Because a vertex's distance is
// its BFS level — a property of the graph, not of visit order or
// direction — the dist array is byte-identical to serial BFSInto
// output for every worker count and schedule.
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
	s.seed(g.NumVertices(), src)
	s.flood(g, dist, workers, true, 0)
}

// DoubleSweepLowerBoundInto returns a lower bound on the diameter of
// src's component using the classic double-sweep heuristic: BFS from
// src, then BFS again from the farthest vertex found. It runs BFSInto
// on caller-provided buffers, for allocation-free reuse.
func DoubleSweepLowerBoundInto(g *Graph, src Vertex, dist []int32, queue []Vertex) int {
	return doubleSweep(g, src, dist, func(src Vertex) { BFSInto(g, src, dist, queue) })
}

// DoubleSweepLowerBoundParallelInto is DoubleSweepLowerBoundInto with
// both sweeps running on the frontier-parallel BFS. The dist contract
// matches BFSParallelInto; the result equals the serial double sweep
// because each sweep's dist array does.
func DoubleSweepLowerBoundParallelInto(g *Graph, src Vertex, dist []int32, workers int, s *BFSScratch) int {
	return doubleSweep(g, src, dist, func(src Vertex) { BFSParallelInto(g, src, dist, workers, s) })
}

// doubleSweep is the double sweep with bfs, which fills dist from a
// source, as its traversal. bfs does not escape, so the callers'
// closures stay on their stacks.
//
//sf:hotpath
func doubleSweep(g *Graph, src Vertex, dist []int32, bfs func(src Vertex)) int {
	bfs(src)
	far := src
	best := int32(0)
	for v := Vertex(1); v <= Vertex(g.NumVertices()); v++ {
		if dist[v] > best {
			best = dist[v]
			far = v
		}
	}
	bfs(far)
	ecc := int32(0)
	for v := 1; v <= g.NumVertices(); v++ {
		if dist[v] > ecc {
			ecc = dist[v]
		}
	}
	return int(ecc)
}

// AverageDistanceSampledInto estimates the mean pairwise distance
// within the sources' components by running BFSInto from each source
// on caller-provided buffers and averaging the finite nonzero
// distances. sources must be non-empty.
func AverageDistanceSampledInto(g *Graph, sources []Vertex, dist []int32, queue []Vertex) float64 {
	return averageDistance(g, sources, dist, func(src Vertex) { BFSInto(g, src, dist, queue) })
}

// AverageDistanceSampledParallelInto is AverageDistanceSampledInto on
// the frontier-parallel BFS: identical estimate (each source's dist
// array is byte-identical to the serial one), one graph pass per
// source spread over workers goroutines.
func AverageDistanceSampledParallelInto(g *Graph, sources []Vertex, dist []int32, workers int, s *BFSScratch) float64 {
	return averageDistance(g, sources, dist, func(src Vertex) { BFSParallelInto(g, src, dist, workers, s) })
}

// averageDistance is the sampled mean distance with bfs, which fills
// dist from a source, as its traversal.
func averageDistance(g *Graph, sources []Vertex, dist []int32, bfs func(src Vertex)) float64 {
	if len(sources) == 0 {
		panic("graph: AverageDistanceSampled needs at least one source")
	}
	n := g.NumVertices()
	var sum float64
	var count int64
	for _, src := range sources {
		bfs(src)
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
