package simtime

import (
	"iter"
	"sync"
)

// Stock is a process-wide free list of T, bounded at a fixed length: storage
// that the owner of a run hands back when it tears the run down (the layers'
// Recycle methods) and that the next run, on whatever goroutine, draws from
// instead of growing its own from empty. Every Get and Put takes a lock, so a
// Stock is for per-run storage — what a layer builds once per run or grows to
// a run's peak — never for a per-operation hot path, which keeps a free list
// of its own. It is not a sync.Pool: the GC never empties it, so what a warm
// run allocates is a function of the runs before it, and a pooled coroutine
// is never dropped without being stopped.
type Stock[T any] struct {
	mu   sync.Mutex
	free []T
	max  int
}

// NewStock returns an empty stock that keeps at most max items.
func NewStock[T any](max int) *Stock[T] { return &Stock[T]{max: max} }

// Get takes the item put last, if there is one.
func (s *Stock[T]) Get() (x T, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		x = s.free[n-1]
		var zero T
		s.free[n-1] = zero
		s.free = s.free[:n-1]
		return x, true
	}
	return x, false
}

// Put keeps x for a later Get and reports whether it did: a full stock
// refuses it, and the caller drops x.
func (s *Stock[T]) Put(x T) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) == s.max {
		return false
	}
	s.free = append(s.free, x)
	return true
}

// tasks is the free list of parked coroutines: kernels are built per run and
// spawn hundreds of tasks each, and starting a coroutine costs ten times what
// re-running a parked one does. What overflows it is stopped, not leaked.
var tasks = NewStock[*task](2048)

func getTask() *task {
	if t, ok := tasks.Get(); ok {
		return t
	}
	t := &task{hidx: -1}
	t.next, t.stop = iter.Pull(t.coroutine)
	return t
}

func putTask(t *task) {
	if !tasks.Put(t) {
		t.stop()
	}
}
