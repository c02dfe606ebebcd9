package simtime

import (
	"context"
	"sync"
)

// WaitGroup is a runtime-aware counterpart of sync.WaitGroup. Tracked tasks
// under the Virtual runtime must not block on sync.WaitGroup (the kernel
// would believe them runnable); they use this type instead.
type WaitGroup struct {
	rt Runtime

	mu      sync.Mutex
	n       int
	waiters []*Waiter
}

// NewWaitGroup returns a WaitGroup bound to rt.
func NewWaitGroup(rt Runtime) *WaitGroup {
	return &WaitGroup{rt: rt}
}

// Add adds delta to the counter. It panics if the counter goes negative.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	if wg.n += delta; wg.n < 0 {
		panic("simtime: negative WaitGroup counter")
	}
	if wg.n == 0 {
		for _, w := range wg.waiters {
			w.Wake()
		}
		wg.waiters = nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Go spawns fn as a tracked task accounted for by the group.
func (wg *WaitGroup) Go(name string, fn func()) {
	wg.Add(1)
	wg.rt.Go(name, func() {
		defer wg.Done()
		fn()
	})
}

// Wait blocks until the counter reaches zero or ctx is done.
func (wg *WaitGroup) Wait(ctx context.Context) error {
	wg.mu.Lock()
	if wg.n == 0 {
		wg.mu.Unlock()
		return nil
	}
	w := wg.rt.NewWaiter()
	wg.waiters = append(wg.waiters, w)
	wg.mu.Unlock()
	return w.Wait(ctx)
}
