package graph

import (
	"math/bits"
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
// the queue of settled vertices and the multi-source pass's planes and
// lists, sized for the largest graph seen, and one record per worker.
// The zero value is ready to use; after a warm-up call at a given size
// and worker count, subsequent traversals allocate nothing, however a
// level's work splits between the workers. A scratch belongs to one
// traversal at a time (one goroutine calls in; the workers it fans out
// to are internal).
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

	// The multi-source pass (AverageDistanceSampledParallelInto) keeps
	// three byte planes, one byte per vertex, in which bit i belongs to
	// source i of the batch: seen holds the sources that have reached
	// the vertex, front those that reached it at the current level and
	// next those that reach it at the level being expanded. full has a
	// bit for each source of the batch. A top-down level expands from
	// frontList, the vertices whose front byte is nonzero, into
	// nextList (see growPlanes).
	seen, front, next   []uint8
	full                uint8
	frontList, nextList []Vertex

	// Per-level state read by the worker goroutines; written only
	// between level barriers. A top-down level claims chunks of
	// frontier[:work]; a bottom-up or pull level claims chunks of the
	// vertex ids 1..work.
	g        *Graph
	target   []int32
	writeVal int32
	kind     levelKind
	work     int
	chunk    int

	// Levels expanded in each direction over the scratch's lifetime,
	// by floods and multi-source passes alike; the tests read them to
	// see that both directions ran.
	topDownLevels, bottomUpLevels int
}

// levelKind is what the workers of a fanned-out level do with the
// chunks they claim.
type levelKind uint8

const (
	levelTopDown  levelKind = iota // expand frontier vertices (flood)
	levelBottomUp                  // settle unvisited vertex ids (flood)
	levelPull                      // pull a multi-source level into vertex ids
)

// bfsWorker is one worker's slot: its owning scratch, the block of
// vertices it has settled but not yet copied into the queue, the
// (source, vertex) pairs its share of a pull level reached, and a
// pre-bound spawn func. Spawning `go w.run()` directly would allocate
// a fresh closure per level per worker (the compiler wraps the
// receiver for newproc); binding the method value once and spawning
// `go w.spawn()` keeps steady-state traversal allocation-free. The
// block has a fixed size, so no share of a level, however large, makes
// a worker allocate.
type bfsWorker struct {
	s       *BFSScratch
	spawn   func()
	reached int64
	n       int // vertices held in block
	block   [bfsBlock]Vertex
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
//
// In a pull level it runs pullChunk over the claimed vertex ids and
// adds up the pairs they reach; it settles nothing into the queue.
func (w *bfsWorker) run() {
	s := w.s
	g, target, val := s.g, s.target, s.writeVal
	w.n, w.reached = 0, 0
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
		switch s.kind {
		case levelPull:
			w.reached += s.pullChunk(g, lo, hi)
		case levelBottomUp:
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
		default:
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
	}
	if w.n > 0 {
		w.flush()
	}
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

// fanOut runs one level on workers goroutines, which claim chunks of
// its work items (frontier entries or vertex ids) from the cursor until
// none remain. The caller has set the level's other state.
func (s *BFSScratch) fanOut(workers, work int) {
	s.ensureWorkers(workers)
	s.work = work
	s.chunk = frontierChunk(work, workers)
	s.cursor.Store(0)
	s.wg.Add(workers)
	for i := range s.workers {
		go s.workers[i].spawn()
	}
	s.wg.Wait()
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
		work, kind := len(s.frontier), levelTopDown
		if bottomUp {
			work, kind = n, levelBottomUp
			s.bottomUpLevels++
		} else {
			s.topDownLevels++
		}
		// next appends in place: the queue has room for every vertex.
		next := s.queue[tail:tail]
		switch {
		case workers > 1 && work >= bfsSerialFrontier:
			s.g, s.target, s.writeVal, s.kind = g, target, val, kind
			s.tail.Store(int64(tail))
			s.fanOut(workers, work)
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

// DoubleSweepLowerBoundParallelInto returns a lower bound on the
// diameter of src's component using the classic double-sweep
// heuristic: BFS from src, then BFS again from the farthest vertex
// found, both on the frontier-parallel BFS. The dist contract matches
// BFSParallelInto; the result equals the serial double sweep because
// each sweep's dist array does.
func DoubleSweepLowerBoundParallelInto(g *Graph, src Vertex, dist []int32, workers int, s *BFSScratch) int {
	return doubleSweep(g, src, dist, func(src Vertex) { BFSParallelInto(g, src, dist, workers, s) })
}

// doubleSweep is the double sweep with bfs, which fills dist from a
// source, as its traversal; the tests' serial reference runs it on
// BFSInto. bfs does not escape, so the callers' closures stay on their
// stacks.
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

// msBatch is the number of sources one bit-parallel BFS carries: one
// bit of a plane byte each.
const msBatch = 8

// AverageDistanceSampledParallelInto estimates the mean pairwise
// distance within the sources' components: the mean, over every source
// and every other vertex it reaches, of their hop distance. A repeated
// source counts once per occurrence; a source that reaches no other
// vertex adds nothing, and the estimate is 0 when none does. sources
// must be non-empty and in 1..n. dist is neither read nor written; it
// stays in the signature for the callers that hold one. s may be nil
// (fresh buffers); passing a reused *BFSScratch makes steady-state
// passes allocation-free.
//
// The sources run in batches of up to 8 through one bit-parallel BFS
// (Then et al., "The More the Merrier", VLDB 2014), so the batch's
// frontiers share each level's scan: top-down levels expand serially
// from the frontier's vertex list while its half-edges are at most
// 2m / bfsBottomUpAlpha, and every later level of the batch runs
// bottom-up over the vertex ids on up to workers goroutines, inline
// when workers <= 1 (DESIGN.md §8.3).
//
// Each newly reached (source, vertex) pair adds its level to an int64
// sum and 1 to an int64 count, so neither depends on the schedule or
// the worker count. The result, float64(sum) / float64(count), is the
// float that adding each distance to a float64 one at a time gives, as
// long as every partial sum is an integer below 2^53: the sum is at
// most len(sources) · n · diameter.
//
//sf:hotpath
func AverageDistanceSampledParallelInto(g *Graph, sources []Vertex, dist []int32, workers int, s *BFSScratch) float64 {
	if len(sources) == 0 {
		panic("graph: AverageDistanceSampled needs at least one source")
	}
	n := g.NumVertices()
	for _, src := range sources {
		if src <= 0 || int(src) > n {
			panic("graph: BFS source out of range")
		}
	}
	if s == nil {
		s = &BFSScratch{}
	}
	s.growPlanes(g)
	var sum, count int64
	for len(sources) > 0 {
		batch := sources[:min(len(sources), msBatch)]
		sources = sources[len(batch):]
		bs, bc := s.distanceBatch(g, batch, workers)
		sum += bs
		count += bc
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// pushLimit is the most half-edges a multi-source frontier may have for
// its level to run top-down: 2m / bfsBottomUpAlpha. A top-down level
// reaches at most as many new vertices as its frontier has half-edges,
// so the bound also sizes the vertex lists.
func pushLimit(g *Graph) int { return 2 * g.NumEdges() / bfsBottomUpAlpha }

// growPlanes gives the multi-source planes a byte per vertex of g and
// its vertex lists max(pushLimit, msBatch) entries, enough for a
// top-down level's new vertices and for a batch's sources. They are
// allocated only when g is larger than every graph before it.
func (s *BFSScratch) growPlanes(g *Graph) {
	if n := g.NumVertices() + 1; len(s.seen) < n {
		s.seen, s.front, s.next = make([]uint8, n), make([]uint8, n), make([]uint8, n)
	}
	if l := max(pushLimit(g), msBatch); len(s.frontList) < l {
		s.frontList, s.nextList = make([]Vertex, l), make([]Vertex, l)
	}
}

// distanceBatch runs one batch of up to msBatch sources through the
// bit-parallel BFS and returns the sum of the levels at which each
// (source, vertex) pair is first reached and the number of such pairs,
// the sources' own level 0 left out. Levels run top-down while the
// frontier's half-edges are at most pushLimit; from the first level
// past it, every level of the batch runs bottom-up.
//
//sf:hotpath
func (s *BFSScratch) distanceBatch(g *Graph, batch []Vertex, workers int) (sum, pairs int64) {
	n := g.NumVertices()
	clear(s.seen[:n+1])
	clear(s.front[:n+1])
	clear(s.next[:n+1])
	s.full = uint8(1<<len(batch) - 1)
	list := s.frontList[:0]
	for i, src := range batch {
		if s.front[src] == 0 {
			list = append(list, src)
		}
		s.front[src] |= 1 << i
		s.seen[src] |= 1 << i
	}
	limit := pushLimit(g)
	pull := false
	for level := int64(1); ; level++ {
		pull = pull || halvesOf(g, list) > limit
		var reached int64
		if pull {
			s.bottomUpLevels++
			reached = s.pullLevel(g, workers)
		} else {
			s.topDownLevels++
			list, reached = s.pushLevel(g, list)
		}
		if reached == 0 {
			return sum, pairs
		}
		sum += level * reached
		pairs += reached
		s.front, s.next = s.next, s.front
	}
}

// pushLevel expands a top-down level from list, the vertices whose
// front byte is nonzero: each one's front bits that a neighbour has not
// seen go into the neighbour's next and seen bytes. It clears the
// frontier's front bytes, so that the front plane is all zero when it
// becomes the next one, and returns the newly reached vertices, in the
// list the frontier did not use, and the number of pairs reached.
//
//sf:hotpath
func (s *BFSScratch) pushLevel(g *Graph, list []Vertex) ([]Vertex, int64) {
	seen, front, next := s.seen, s.front, s.next
	out := s.nextList[:0]
	reached := 0
	for _, u := range list {
		f := front[u]
		for _, h := range g.Incident(u) {
			o := h.Other
			fresh := f &^ seen[o]
			if fresh == 0 {
				continue
			}
			if next[o] == 0 {
				out = append(out, o)
			}
			next[o] |= fresh
			seen[o] |= fresh
			reached += bits.OnesCount8(fresh)
		}
		front[u] = 0
	}
	s.frontList, s.nextList = s.nextList, s.frontList
	return out, int64(reached)
}

// pullLevel expands a bottom-up level over every vertex id and returns
// the pairs it reached. It fans out to the workers through the cursor,
// chunking and spawn path of flood, and runs inline when workers <= 1
// or the graph has fewer than bfsSerialFrontier vertices.
//
//sf:hotpath
func (s *BFSScratch) pullLevel(g *Graph, workers int) int64 {
	n := g.NumVertices()
	if workers <= 1 || n < bfsSerialFrontier {
		return s.pullChunk(g, 0, n)
	}
	s.g, s.kind = g, levelPull
	s.fanOut(workers, n)
	var reached int64
	for i := range s.workers {
		reached += s.workers[i].reached
	}
	return reached
}

// pullChunk expands the vertex ids lo+1..hi of a bottom-up level and
// returns the pairs they reached. A vertex that some source has not
// reached ORs its neighbours' front bytes until they cover its missing
// bits, and keeps the new ones; one that every source has reached costs
// a byte test and clears its next byte. Only the claiming worker writes
// a vertex's seen and next bytes, and front is read-only during a
// level, so concurrent chunks need no atomics.
//
//sf:hotpath
func (s *BFSScratch) pullChunk(g *Graph, lo, hi int) int64 {
	seen, front, next, full := s.seen, s.front, s.next, s.full
	reached := 0
	for v := Vertex(lo + 1); v <= Vertex(hi); v++ {
		missing := full &^ seen[v]
		if missing == 0 {
			next[v] = 0
			continue
		}
		got := uint8(0)
		for _, h := range g.Incident(v) {
			if got |= front[h.Other]; got&missing == missing {
				break
			}
		}
		got &= missing
		next[v] = got
		seen[v] |= got
		reached += bits.OnesCount8(got)
	}
	return int64(reached)
}
