package cache

import "container/heap"

// Policy picks a cache's eviction victims; it is the one thing in which the
// two tiers differ.
type Policy int

const (
	// LRU, the page cache's policy, evicts the least recently used entry.
	// While more than one tenant is joined, it first scans a bounded window
	// from the tail for an entry of a tenant over its equal share of the
	// capacity — the inserting tenant's own first when it is over — so one
	// tenant's working set cannot silently evict everyone else's.
	LRU Policy = iota
	// LeastCostPerByte, the materialized cache's policy, evicts the entry
	// whose hits save the least compute per byte, the older first on ties
	// (Seneca's cost-aware eviction). A new entry that is itself the
	// cheapest when room must be made is not kept.
	LeastCostPerByte
)

// victims is the structure a policy orders resident entries in.
type victims[K Key[K]] interface {
	link(n *node[K])   // adds a new entry
	unlink(n *node[K]) // takes an entry out
	touch(n *node[K])  // records a use of a resident entry
	// victim picks the next entry of c to evict for an insertion by tenant of
	// an entry of cost density density; nil: that entry is the victim itself.
	victim(c *Cache[K], tenant int, density float64) *node[K]
	reset() // forgets every entry
}

// lru links the entries through prev/next, the most recently used first.
type lru[K Key[K]] struct{ head, tail *node[K] }

// scanDepth bounds how far LRU scans from the tail for an over-share victim
// before falling back to the tail itself, so eviction stays O(1)-ish.
const scanDepth = 64

func (l *lru[K]) victim(c *Cache[K], tenant int, _ float64) *node[K] {
	if l.tail == nil || c.tenants.live <= 1 {
		return l.tail
	}
	share := c.total.Capacity / int64(c.tenants.live)
	self := c.row(tenant)
	overSelf := self != nil && self.Used > share
	var anyOver *node[K]
	for n, i := l.tail, 0; n != nil && i < scanDepth; n, i = n.prev, i+1 {
		if r := c.row(int(n.tenant)); r != nil && r.Used > share {
			if !overSelf || int(n.tenant) == tenant {
				return n
			}
			if anyOver == nil {
				anyOver = n
			}
		}
	}
	if anyOver != nil {
		return anyOver
	}
	return l.tail
}

func (l *lru[K]) link(n *node[K]) {
	n.prev, n.next = nil, l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lru[K]) unlink(n *node[K]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lru[K]) touch(n *node[K]) {
	if l.head != n {
		l.unlink(n)
		l.link(n)
	}
}

func (l *lru[K]) reset() { l.head, l.tail = nil, nil }

// costHeap is a min-heap of entries by (density, seq): a strict order, so the
// victim is unique and eviction deterministic.
type costHeap[K Key[K]] []*node[K]

func (h *costHeap[K]) victim(_ *Cache[K], _ int, density float64) *node[K] {
	if len(*h) == 0 || density < (*h)[0].density {
		return nil
	}
	return (*h)[0]
}

func (h *costHeap[K]) link(n *node[K])   { heap.Push(h, n) }
func (h *costHeap[K]) unlink(n *node[K]) { heap.Remove(h, int(n.idx)) }
func (h *costHeap[K]) touch(*node[K])    {} // the cost order does not change with use
func (h *costHeap[K]) reset()            { clear(*h); *h = (*h)[:0] }

func (h costHeap[K]) Len() int { return len(h) }
func (h costHeap[K]) Less(i, j int) bool {
	if h[i].density != h[j].density {
		return h[i].density < h[j].density
	}
	return h[i].seq < h[j].seq
}
func (h costHeap[K]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = int32(i), int32(j)
}
func (h *costHeap[K]) Push(x any) {
	n := x.(*node[K])
	n.idx = int32(len(*h))
	*h = append(*h, n)
}
func (h *costHeap[K]) Pop() any {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return n
}
