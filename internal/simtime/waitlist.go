package simtime

import (
	"context"
	"slices"
)

// WaitList is the kernel's one list of parked selectors, woken first in,
// first out: a task parks on it itself (Wait), or a wake source registers a
// caller's selector on it (Arm, taken out again by Disarm), and the source
// wakes the oldest entry (WakeOne) or every one (WakeAll). Queues,
// WaitGroup, Barrier and Gate are built on it, and so are the caches'
// single-flight followers.
//
// Entries are addressed by absolute position: each joins at the next one,
// the live window is [head, tail), and position p lives in slot p mod
// len(ring). An entry that leaves before its wake (a Wait whose context
// ended, a Disarm) becomes a tombstone, in O(1), which wakes skip; vacated
// slots are zeroed, so no selector stays reachable once its entry is out.
// A push that finds the ring (at first the list's own two-entry array) full
// repacks the live entries in order at fresh positions from tail on, and
// renumbers the positions their owners noted on their selectors: in place if
// at most half the ring is live, else into a heap ring twice the size (8 at
// least). So the ring tracks the live entries, not the arm traffic.
//
// One rule makes a single list safe for every user: whoever ends a Wait's
// cycle hands its selector back to the kernel — the waker whose wake it
// accepted, or the waiter that gave up, after taking its entry out unless a
// wake did, which then clears its note. So once a wake has taken a Wait's
// entry out, its waiter never touches the list again: a list may be woken,
// Init-ed and waited on anew, or handed to another kernel, at once, before
// the tasks it woke resume. A position a wake took out never comes back
// (head and tail only advance, Init included). Task-only; the zero value is
// an empty list, ready for Arm; Wait needs Init.
type WaitList struct {
	k          *Virtual
	ring       []waitEntry // nil, inline[:], or a heap ring; len a power of two
	head, tail uint64
	live       int // entries in the window that are not tombstones
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
	if l.live != 0 {
		panic("simtime: Init of a WaitList with selectors on it")
	}
	l.k = rt
}

// Len returns the number of entries on the list.
func (l *WaitList) Len() int { return l.live }

// Wait parks the calling task on the list until a wake reaches its entry or
// ctx is done.
func (l *WaitList) Wait(ctx context.Context) error {
	k := l.k
	s := k.selector()
	l.Arm(s, 0)
	if !k.park(ctx, "waiter", 0, s) {
		return nil // the waker took the entry out and handed s back
	}
	l.Disarm(s)
	k.sels = append(k.sels, s)
	return ctx.Err()
}

// Arm registers s to be woken with result idx. The position is noted on s,
// so that Disarm finds the entry without a search.
func (l *WaitList) Arm(s *Selector, idx int) { s.notes = append(s.notes, l.push(s, idx)) }

// Disarm takes s's entry out, unless a wake has, and reports whether it did;
// tombstones at the head leave the window. The positions noted on s for this
// cycle include its own; one another list noted, or one a wake took out,
// fails the check.
func (l *WaitList) Disarm(s *Selector) bool {
	for _, pos := range s.notes {
		if pos-l.head < l.tail-l.head && l.slot(pos).sel == s {
			*l.slot(pos) = waitEntry{}
			l.live--
			for l.head != l.tail && l.slot(l.head).sel == nil {
				l.head++
			}
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
	l.live--
	ok := s.TryWake(idx)
	if s.spare && ok {
		s.k.sels = append(s.k.sels, s)
	} else if s.spare { // a Wait given up: no entry is left for its waiter to find
		s.notes = s.notes[:0]
	}
	return ok
}

func (l *WaitList) slot(pos uint64) *waitEntry { return &l.ring[pos&uint64(len(l.ring)-1)] }

// push appends an entry and returns its position.
func (l *WaitList) push(s *Selector, idx int) uint64 {
	if n := len(l.ring); int(l.tail-l.head) == n {
		switch {
		case n == 0:
			l.ring = l.inline[:]
		case 2*l.live <= n:
			l.repack(l.ring)
		default:
			l.repack(make([]waitEntry, max(8, 2*n)))
		}
	}
	*l.slot(l.tail) = waitEntry{sel: s, idx: idx}
	l.tail++
	l.live++
	return l.tail - 1
}

// repack moves the live entries of the full ring, oldest first, into ring at
// the positions from tail on, renumbering the note each owner holds, and
// zeroes the slots they left. In place, position tail+j shares its slot with
// head+j, so no entry moves past one still to be read.
func (l *WaitList) repack(ring []waitEntry) {
	to := l.tail
	for p := l.head; p != l.tail; p++ {
		e := *l.slot(p)
		if e.sel == nil {
			continue
		}
		*l.slot(p) = waitEntry{}
		ring[to&uint64(len(ring)-1)] = e
		if i := slices.Index(e.sel.notes, p); i >= 0 {
			e.sel.notes[i] = to
		}
		to++
	}
	l.ring, l.head, l.tail = ring, l.tail, to
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
