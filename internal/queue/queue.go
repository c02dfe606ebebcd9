// Package queue provides a bounded, blocking, multi-producer multi-consumer
// FIFO queue built on the simtime runtime. It mirrors the semantics of
// torch.multiprocessing.Queue that MinatoLoader's paper implementation uses
// (§4.4): atomic Put under contention, blocking Get, FIFO ordering.
//
// Close wakes every blocked producer and consumer deterministically, which
// is the primary shutdown mechanism under the virtual-time runtime.
//
// The implementation is allocation-free in steady state: items live in a
// power-of-two ring buffer sized at construction (or, for a queue that
// seldom fills, grown to the most it has held), and parked producers and
// consumers wait on two simtime.WaitLists, the kernel's wait list (FIFO
// wakes, a waiter that gives up leaves in O(1), the selectors of blocking
// waits recycled by the kernel). Popped ring slots are zeroed so the queue
// never keeps a vacated element reachable.
//
// Each wait list starts on a two-entry array inside the queue before it
// moves to a heap ring, and keeps that ring across Init. Init readies a
// Queue embedded by value in its owner, so a structure that holds several
// queues pays one allocation per item ring.
//
// A Queue has no lock: it is task-only state (see simtime's ownership rule).
// Only kernel tasks, of which one runs at a time, may call its methods.
package queue

import (
	"context"
	"errors"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// ErrClosed is returned by Put after Close, and by Get after Close once the
// buffer has drained.
var ErrClosed = errors.New("queue: closed")

// Queue is a bounded blocking FIFO.
type Queue[T any] struct {
	name string
	cap  int

	buf        []T // power-of-two ring; len(buf) >= cap, or grown on demand (InitFrom)
	mask       int
	head       int // index of the oldest buffered item
	size       int
	closed     bool
	getWaiters simtime.WaitList // blocked Gets and armed selectors
	putWaiters simtime.WaitList // blocked Puts

	puts, gets int64
}

// New returns a queue with the given capacity. Capacity must be positive.
// The ring buffer is allocated eagerly (rounded up to a power of two), so
// the queue performs no item-storage allocation after construction.
func New[T any](rt *simtime.Virtual, name string, capacity int) *Queue[T] {
	q := new(Queue[T])
	q.Init(rt, name, capacity)
	return q
}

// Init readies a Queue embedded by value in a larger struct: what New does
// for one of its own. The queue is a zero one, or one its recycled owner
// used before, whose tasks have all exited: that one starts over empty and
// keeps its item ring, when the capacity rounds to the same size, and its
// wait lists' rings. The queue points into itself once used, so it must not
// be copied after Init.
func (q *Queue[T]) Init(rt *simtime.Virtual, name string, capacity int) {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	ring := ringFor(capacity)
	buf := q.buf
	if len(buf) != ring {
		buf = make([]T, ring)
	}
	q.reset(rt, name, capacity, buf)
}

// ringFor is the ring length a capacity rounds up to.
func ringFor(capacity int) int {
	ring := 1
	for ring < capacity {
		ring <<= 1
	}
	return ring
}

// reset readies the queue, empty, on the power-of-two ring buf. The wait
// lists, whose rings may point into q, are written back where they were.
func (q *Queue[T]) reset(rt *simtime.Virtual, name string, capacity int, buf []T) {
	clear(buf)
	*q = Queue[T]{name: name, cap: capacity, buf: buf, mask: len(buf) - 1,
		getWaiters: q.getWaiters, putWaiters: q.putWaiters}
	q.getWaiters.Init(rt)
	q.putWaiters.Init(rt)
}

// Recycle hands the item ring of a closed, drained queue, whose popped slots
// are all zero, to rings, for a later InitFrom of any queue. The queue stays
// closed and empty (a Put fails and a Get returns ErrClosed without touching
// the ring) until it is Init'ed again.
func (q *Queue[T]) Recycle(rings *simtime.Stock[[]T]) {
	if !q.closed || q.size > 0 {
		panic("queue: Recycle of a queue that is open or holds items")
	}
	if rings.Put(q.buf) {
		q.buf = nil
	}
}

// InitFrom is Init for a queue that seldom holds more than a few items: its
// ring is its own, or one from rings (which Recycle filled), or a new one of
// minRing items, and a Put that finds it full doubles it, up to the ring the
// capacity rounds to. Such a queue keeps as much storage as it has held
// items, not as its capacity allows; a full ring still blocks at capacity.
func (q *Queue[T]) InitFrom(rings *simtime.Stock[[]T], rt *simtime.Virtual, name string, capacity int) {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	buf := q.buf
	if buf == nil {
		buf, _ = rings.Get()
	}
	if ring := ringFor(capacity); len(buf) > ring || buf == nil {
		buf = make([]T, min(ring, minRing))
	}
	q.reset(rt, name, capacity, buf)
}

// minRing is the ring an InitFrom queue starts on when it has none.
const minRing = 8

// grow doubles a full ring, keeping the items in order.
func (q *Queue[T]) grow() {
	buf := make([]T, 2*len(q.buf))
	for i := range q.size {
		buf[i] = q.buf[(q.head+i)&q.mask]
	}
	q.buf, q.head, q.mask = buf, 0, len(buf)-1
}

// Name returns the queue's diagnostic name.
func (q *Queue[T]) Name() string { return q.name }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return q.cap }

// Len returns the current number of buffered items.
func (q *Queue[T]) Len() int { return q.size }

// push appends v to the ring. The caller has verified space is available.
func (q *Queue[T]) push(v T) {
	n := q.size
	if n == len(q.buf) {
		q.grow() // only an InitFrom ring is ever full below capacity
	}
	q.buf[(q.head+n)&q.mask] = v
	q.size = n + 1
	q.puts++
	q.getWaiters.WakeOne()
}

// pop removes and returns the oldest item. The caller has verified the queue
// is non-empty. The vacated slot is zeroed so the ring never keeps a popped
// element reachable.
func (q *Queue[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & q.mask
	q.size--
	q.gets++
	q.putWaiters.WakeOne()
	return v
}

// Put appends v, blocking while the queue is full. It returns ErrClosed if
// the queue is or becomes closed, or ctx.Err() on cancellation.
func (q *Queue[T]) Put(ctx context.Context, v T) error {
	for {
		if q.closed {
			return ErrClosed
		}
		if q.size < q.cap {
			q.push(v)
			return nil
		}
		if err := q.putWaiters.Wait(ctx); err != nil {
			// Guard against a lost wakeup: someone may have woken us to fill
			// the free slot we are abandoning.
			if q.size < q.cap {
				q.putWaiters.WakeOne()
			}
			return err
		}
	}
}

// TryPut appends v without blocking. It reports whether the item was
// accepted; it returns ErrClosed after Close.
func (q *Queue[T]) TryPut(v T) (bool, error) {
	if q.closed {
		return false, ErrClosed
	}
	if q.size >= q.cap {
		return false, nil
	}
	q.push(v)
	return true, nil
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. After Close, Get drains remaining items and then returns ErrClosed.
func (q *Queue[T]) Get(ctx context.Context) (T, error) {
	var zero T
	for {
		if q.size > 0 {
			return q.pop(), nil
		}
		if q.closed {
			return zero, ErrClosed
		}
		if err := q.getWaiters.Wait(ctx); err != nil {
			if q.size > 0 {
				q.getWaiters.WakeOne()
			}
			return zero, err
		}
	}
}

// TryGet removes and returns the oldest item without blocking. ok is false
// when the queue is empty. It returns ErrClosed once closed and drained.
func (q *Queue[T]) TryGet() (v T, ok bool, err error) {
	if q.size > 0 {
		return q.pop(), true, nil
	}
	if q.closed {
		return v, false, ErrClosed
	}
	return v, false, nil
}

// Close marks the queue closed and wakes every blocked producer and
// consumer. Items already buffered remain readable. Close is idempotent.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.getWaiters.WakeAll()
	q.putWaiters.WakeAll()
}

// Arm implements simtime.Source: it registers sel for a wakeup when the
// queue becomes readable (an item arrives or the queue closes). If the queue
// is already readable, sel is woken immediately and not registered.
func (q *Queue[T]) Arm(sel *simtime.Selector, idx int) bool {
	if q.size > 0 || q.closed {
		sel.TryWake(idx)
		return true
	}
	q.getWaiters.Arm(sel, idx)
	return false
}

// Disarm implements simtime.Source.
func (q *Queue[T]) Disarm(sel *simtime.Selector) { q.getWaiters.Disarm(sel) }

// WaitAny blocks until one of the sources is ready — for queues, readable or
// closed — and returns the index of the source that fired (Heartbeat when
// the deadline passed first; pass 0 for none). It allocates a throwaway
// Selector, so it is a convenience for occasional waits; hot loops should
// hold a Selector and call Select on it directly.
func WaitAny(ctx context.Context, rt *simtime.Virtual, deadline time.Duration, sources ...simtime.Source) (int, error) {
	return simtime.NewSelector(rt).Select(ctx, deadline, sources...)
}

var _ simtime.Source = (*Queue[int])(nil)

// Stats is a snapshot of queue activity.
type Stats struct {
	Name       string
	Puts, Gets int64
	Len, Cap   int
}

// Stats returns a snapshot of queue counters.
func (q *Queue[T]) Stats() Stats {
	return Stats{Name: q.name, Puts: q.puts, Gets: q.gets, Len: q.size, Cap: q.cap}
}
