package simtime

// Flights is the waiting side of a single-flight protocol keyed by K: while
// one task, the leader, produces a key's value, the others park until the
// flight has landed, then look again. Waiters and the lists that hold them
// are reused from one flight to the next, and from one kernel to the next: a
// Flights with nothing in flight may be handed to another run (see
// cache.Pool). Task-only; the zero value is ready.
type Flights[K comparable] struct {
	m     map[K][]*Waiter
	idle  []*Waiter
	lists [][]*Waiter
}

// Join returns nil when no flight for key was under way — the caller now
// leads one and must Land it — else a waiter to park on until it has landed.
func (f *Flights[K]) Join(key K, rt *Virtual) *Waiter {
	ws, flying := f.m[key]
	if !flying {
		if f.m == nil {
			f.m = make(map[K][]*Waiter)
		}
		f.m[key] = nil
		return nil
	}
	var w *Waiter
	if n := len(f.idle); n > 0 {
		w, f.idle = f.idle[n-1], f.idle[:n-1]
		w.sel.Bind(rt)
		w.sel.Reset()
	} else {
		w = rt.NewWaiter()
	}
	if n := len(f.lists); ws == nil && n > 0 {
		ws, f.lists = f.lists[n-1], f.lists[:n-1]
	}
	f.m[key] = append(ws, w)
	return w
}

// Land ends key's flight, readies its followers in arrival order and reports
// how many there were. Their waiters go back on the idle list at once: a
// readied follower does not look at its waiter again.
func (f *Flights[K]) Land(key K) int {
	ws := f.m[key]
	delete(f.m, key)
	for _, w := range ws {
		w.Wake()
	}
	if ws != nil {
		f.idle = append(f.idle, ws...)
		f.lists = append(f.lists, ws[:0])
	}
	return len(ws)
}

// Keys returns the keys in flight, in no order.
func (f *Flights[K]) Keys() []K {
	keys := make([]K, 0, len(f.m))
	for key := range f.m {
		keys = append(keys, key)
	}
	return keys
}
