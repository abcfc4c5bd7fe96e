package search

import (
	"scalefree/internal/rng"

	"scalefree/internal/graph"
)

// Scratch holds the reusable state of one search worker: a persistent
// Oracle whose vertex-indexed tables are cleared and reused search to
// search, the slot-permutation shuffler, slab arenas for the
// per-vertex slices the oracle hands out, and the search algorithms'
// own working set. One scratch serves one oracle at a time;
// constructing a new oracle with the same scratch invalidates the
// previous one. After a warm-up search, repeated searches over
// same-size graphs allocate nothing, whichever algorithm runs them.
//
// Scratch is memory reuse only: a search through a scratch-backed
// oracle behaves bit-identically to one through a fresh oracle.
type Scratch struct {
	oracle   Oracle
	shuffler rng.RNG

	viewSlab   slab[View]
	slotSlab   slab[int32]
	vertexSlab slab[graph.Vertex]

	ws workspace
}

// workspace is the working set of the search algorithms themselves:
// the greedy frontier heaps, RandomEdge's slot pool, and BiasedWalk's
// running weight totals. A search resets whatever part it uses when it
// starts, so no state leaks from one search into the next.
type workspace struct {
	heaps [2]prioHeap
	pool  []slotRef
	// cum holds BiasedWalk's running weight totals, one run of Degree
	// entries per requested vertex; cumAt[v] is 1 + the start of v's
	// run, or 0 while v has none.
	cum   []float64
	cumAt []int32
}

// slab is a bump allocator handing out zeroed sub-slices of one backing
// buffer. Exhausting the buffer abandons it to the slices already
// handed out and starts a doubled one, so steady-state reuse converges
// to zero allocations after a few warm-up rounds.
type slab[T any] struct {
	buf []T
	off int
}

func (s *slab[T]) reset() { s.off = 0 }

//sf:hotpath
func (s *slab[T]) alloc(n int) []T {
	if s.off+n > len(s.buf) {
		c := 2 * len(s.buf)
		if c < s.off+n {
			c = s.off + n
		}
		if c < 64 {
			c = 64
		}
		s.buf = make([]T, c)
		s.off = 0
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(out)
	return out
}

// allocOne hands out one zeroed T from the slab.
//
//sf:hotpath
func (s *slab[T]) allocOne() *T {
	return &s.alloc(1)[0]
}
