package search

import "scalefree/internal/graph"

// heapItem is one frontier entry of the greedy searchers: a vertex and
// its priority, lower popping first.
type heapItem struct {
	prio int64
	v    graph.Vertex
}

// prioHeap is a binary min-heap of heapItems ordered by prio. It backs
// the greedy searchers, which need repeated extract-best over the
// knowledge frontier with lazy invalidation. Every caller's priority
// encodes the vertex in its low 32 bits, so equal priorities mean
// identical items, the minimum is unique, and the sequence of tops is
// a function of the pushes and pops, not of their interleaving.
type prioHeap struct {
	items []heapItem
}

// reset empties the heap, keeping its backing array.
func (h *prioHeap) reset() { h.items = h.items[:0] }

// push inserts v with priority prio.
//
//sf:hotpath
func (h *prioHeap) push(prio int64, v graph.Vertex) {
	h.items = append(h.items, heapItem{prio, v})
	items := h.items
	for i := len(items) - 1; i > 0; {
		parent := (i - 1) / 2
		if items[i].prio >= items[parent].prio {
			return
		}
		items[i], items[parent] = items[parent], items[i]
		i = parent
	}
}

// peek returns the minimum item without removing it; ok is false when
// empty.
//
//sf:hotpath
func (h *prioHeap) peek() (top heapItem, ok bool) {
	if len(h.items) == 0 {
		return heapItem{}, false
	}
	return h.items[0], true
}

// pop removes and returns the minimum item; ok is false when empty.
//
//sf:hotpath
func (h *prioHeap) pop() (top heapItem, ok bool) {
	n := len(h.items)
	if n == 0 {
		return heapItem{}, false
	}
	top = h.items[0]
	n--
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	items := h.items
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		best := i
		if left < n && items[left].prio < items[best].prio {
			best = left
		}
		if right < n && items[right].prio < items[best].prio {
			best = right
		}
		if best == i {
			return top, true
		}
		items[i], items[best] = items[best], items[i]
		i = best
	}
}
