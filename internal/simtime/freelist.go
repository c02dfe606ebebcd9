package simtime

import (
	"iter"
	"sync"
)

// The free list of parked coroutines is process-wide: kernels are built per
// run and spawn hundreds of tasks each, and starting a coroutine costs ten
// times what re-running a parked one does. It is an explicit bounded list,
// not a sync.Pool (an evicted coroutine would be a leaked goroutine): what
// overflows is stopped.
var (
	freeMu    sync.Mutex
	freeTasks []*task
)

const maxFreeTasks = 2048

func getTask() *task {
	freeMu.Lock()
	defer freeMu.Unlock()
	if n := len(freeTasks); n > 0 {
		t := freeTasks[n-1]
		freeTasks = freeTasks[:n-1]
		return t
	}
	t := &task{hidx: -1}
	t.next, t.stop = iter.Pull(t.coroutine)
	return t
}

func putTask(t *task) {
	freeMu.Lock()
	defer freeMu.Unlock()
	if len(freeTasks) == maxFreeTasks {
		t.stop()
		return
	}
	freeTasks = append(freeTasks, t)
}
