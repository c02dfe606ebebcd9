package simtime

import "context"

// WaitList is the kernel's one list of parked selectors, woken first in,
// first out: a task parks on it itself (Wait), or a wake source registers a
// caller's selector on it (Arm, taken out again by Disarm), and the source
// wakes the oldest entry (WakeOne) or every one (WakeAll). Queues,
// WaitGroup, Barrier and Gate are built on it, and so are the caches'
// single-flight followers.
//
// Entries are addressed by absolute position: each joins at the next one,
// the live window is [head, tail), and position p lives in slot p mod
// len(ring), so growing the ring moves no entry. An entry that leaves before
// its wake (a Wait whose context ended, a Disarm) becomes a tombstone, in
// O(1), which wakes skip; vacated slots are zeroed, so no selector stays
// reachable once its entry is out. The ring starts as the list's own
// two-entry array, then moves to heap rings of 8, 16, ... entries.
//
// One rule makes a single list safe for every user: whoever takes a Wait's
// entry out — the waker, or the waiter that gave up — hands its selector back
// to the kernel, and a position a wake took out never comes back (head only
// advances, Init included). So a woken waiter never touches the list again:
// a list may be woken, Init-ed and waited on anew at one instant, before the
// tasks it woke resume. Task-only; the zero value is an empty list, ready
// for Arm; Wait needs Init.
type WaitList struct {
	k          *Virtual
	ring       []waitEntry // nil, inline[:], or a heap ring; len a power of two
	head, tail uint64
	inline     [2]waitEntry
}

// waitEntry is one parked selector and the result its wake delivers; a nil
// sel is a tombstone.
type waitEntry struct {
	sel *Selector
	idx int
}

// Init binds the list to rt, for Wait. A list used before must be empty
// (woken, or left by every entry); it keeps its ring and its positions.
func (l *WaitList) Init(rt *Virtual) {
	if l.head != l.tail {
		panic("simtime: Init of a WaitList with selectors on it")
	}
	l.k = rt
}

// Len returns the number of entries from the oldest to the newest, the
// tombstones between them included.
func (l *WaitList) Len() int { return int(l.tail - l.head) }

// Wait parks the calling task on the list until a wake reaches its entry or
// ctx is done.
func (l *WaitList) Wait(ctx context.Context) error {
	k := l.k
	s := k.selector()
	pos := l.push(s, 0)
	if !k.park(ctx, "waiter", 0, s) {
		return nil // the waker took the entry out and handed s back
	}
	if l.remove(pos, s) {
		k.sels = append(k.sels, s)
	}
	return ctx.Err()
}

// Arm registers s to be woken with result idx. The position is noted on s,
// so that Disarm finds the entry without a search.
func (l *WaitList) Arm(s *Selector, idx int) { s.notes = append(s.notes, l.push(s, idx)) }

// Disarm takes s's entry out, unless a wake has, and reports whether it did.
// The positions noted on s for this cycle include its own; one another list
// noted at most fails the check.
func (l *WaitList) Disarm(s *Selector) bool {
	for _, pos := range s.notes {
		if l.remove(pos, s) {
			return true
		}
	}
	return false
}

// WakeOne takes entries out, oldest first, until one accepts its wake, and
// reports whether one did. A refused wake (a selector another source, a
// timeout or a cancellation claimed first) passes to the next entry, so the
// wake is never lost.
func (l *WaitList) WakeOne() bool {
	for l.head != l.tail {
		if l.wake() {
			return true
		}
	}
	return false
}

// WakeAll takes every entry out, oldest first, and wakes it. It returns how
// many accepted their wake.
func (l *WaitList) WakeAll() (woken int) {
	for l.head != l.tail {
		if l.wake() {
			woken++
		}
	}
	return woken
}

// wake takes the oldest entry out and delivers its wake, reporting whether it
// was accepted; a tombstone accepts nothing.
func (l *WaitList) wake() bool {
	e := l.slot(l.head)
	s, idx := e.sel, e.idx
	*e = waitEntry{}
	l.head++
	if s == nil {
		return false
	}
	ok := s.TryWake(idx)
	if s.spare {
		s.k.sels = append(s.k.sels, s)
	}
	return ok
}

func (l *WaitList) slot(pos uint64) *waitEntry { return &l.ring[pos&uint64(len(l.ring)-1)] }

// push appends an entry and returns its position.
func (l *WaitList) push(s *Selector, idx int) uint64 {
	if int(l.tail-l.head) == len(l.ring) {
		l.grow()
	}
	*l.slot(l.tail) = waitEntry{sel: s, idx: idx}
	l.tail++
	return l.tail - 1
}

// grow moves the full window to a ring twice the size, the inline array
// being the first, and zeroes the one it left.
func (l *WaitList) grow() {
	old := l.ring
	if old == nil {
		l.ring = l.inline[:]
		return
	}
	l.ring = make([]waitEntry, max(8, 2*len(old)))
	for p := l.head; p != l.tail; p++ {
		*l.slot(p) = old[p&uint64(len(old)-1)]
	}
	clear(old)
}

// remove tombstones the entry at pos if it is s's, and reports whether it
// was; otherwise a wake has taken it out already (or pos is another list's).
// Tombstones at either end of the window leave it.
func (l *WaitList) remove(pos uint64, s *Selector) bool {
	if pos-l.head >= l.tail-l.head || l.slot(pos).sel != s {
		return false
	}
	*l.slot(pos) = waitEntry{}
	for l.head != l.tail && l.slot(l.head).sel == nil {
		l.head++
	}
	for l.head != l.tail && l.slot(l.tail-1).sel == nil {
		l.tail--
	}
	return true
}

// selector returns a Reset selector for a Wait: one an earlier Wait's entry
// handed back, or a new one.
func (k *Virtual) selector() *Selector {
	n := len(k.sels)
	if n == 0 {
		return &Selector{k: k, spare: true}
	}
	s := k.sels[n-1]
	k.sels = k.sels[:n-1]
	s.k = k // it may come from a recycled kernel
	s.Reset()
	return s
}
