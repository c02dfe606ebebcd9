package simtime

import "context"

// WaitGroup is a runtime-aware counterpart of sync.WaitGroup. Tracked tasks
// under the Virtual runtime must not block on sync.WaitGroup (the kernel
// would believe them runnable); they use this type instead. Task-only.
type WaitGroup struct {
	n      int
	parked WaitList
}

// NewWaitGroup returns a WaitGroup bound to rt.
func NewWaitGroup(rt *Virtual) *WaitGroup {
	wg := new(WaitGroup)
	wg.parked.Init(rt)
	return wg
}

// Init binds a WaitGroup embedded by value in its owner to rt: a zero one,
// or one a recycled owner used before, whose tasks have all exited and whose
// waiters have all been woken.
func (wg *WaitGroup) Init(rt *Virtual) {
	if wg.n != 0 {
		panic("simtime: Init of a WaitGroup still counting tasks")
	}
	wg.parked.Init(rt)
}

// Add adds delta to the counter. It panics if the counter goes negative.
func (wg *WaitGroup) Add(delta int) {
	if wg.n += delta; wg.n < 0 {
		panic("simtime: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.parked.WakeAll()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Go spawns fn as a tracked task accounted for by the group. The task
// carries the group itself and calls Done when fn ends, so spawning wraps fn
// in nothing.
func (wg *WaitGroup) Go(name string, fn func()) {
	wg.Add(1)
	wg.parked.k.spawn(name, callFunc, fn, false).wg = wg
}

// Wait blocks until the counter reaches zero or ctx is done.
func (wg *WaitGroup) Wait(ctx context.Context) error {
	if wg.n == 0 {
		return nil
	}
	return wg.parked.Wait(ctx)
}
