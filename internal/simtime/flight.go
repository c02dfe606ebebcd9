package simtime

import "slices"

// Flights is the waiting side of a single-flight protocol keyed by K: while
// one task, the leader, produces a key's value, the others park on the key's
// WaitList until the flight has landed, then look again. A landed key's list
// is reused at once, by the next key to take followers, and from one kernel
// to the next: a Flights with nothing in flight may be handed to another run
// (see cache.Pool). Task-only; the zero value is ready.
type Flights[K comparable] struct {
	m    map[K]*WaitList // nil until the flight takes a follower
	idle []*WaitList
}

// Join returns nil when no flight for key was under way — the caller now
// leads one and must Land it — else the list to Wait on until it has landed.
func (f *Flights[K]) Join(key K, rt *Virtual) *WaitList {
	l, flying := f.m[key]
	switch {
	case !flying:
		if f.m == nil {
			f.m = make(map[K]*WaitList)
		}
		f.m[key] = nil
		return nil
	case l != nil:
		return l
	}
	if n := len(f.idle); n > 0 {
		l, f.idle = f.idle[n-1], f.idle[:n-1]
	} else {
		l = new(WaitList)
	}
	l.Init(rt)
	f.m[key] = l
	return l
}

// Land ends key's flight, wakes its followers in arrival order and reports
// how many accepted the wake: a follower that gave up its Wait is not one.
// The list goes back on the idle list at once.
func (f *Flights[K]) Land(key K) int {
	l := f.m[key]
	delete(f.m, key)
	if l == nil {
		return 0
	}
	f.idle = append(f.idle, l)
	return l.WakeAll()
}

// LandAll lands every flight, in the key order cmp gives, and reports
// whether a follower was still on a list then: woken now, or cancelled
// before, it has yet to resume, so the table must stay in its run.
func (f *Flights[K]) LandAll(cmp func(a, b K) int) (followed bool) {
	keys := make([]K, 0, len(f.m))
	for key, l := range f.m {
		keys = append(keys, key)
		followed = followed || l != nil && l.Len() > 0
	}
	slices.SortFunc(keys, cmp)
	for _, key := range keys {
		f.Land(key)
	}
	return followed
}
