package simtime

import "context"

// WaitGroup is a runtime-aware counterpart of sync.WaitGroup. Tracked tasks
// under the Virtual runtime must not block on sync.WaitGroup (the kernel
// would believe them runnable); they use this type instead. Task-only.
type WaitGroup struct {
	n      int
	parked waitList
}

// NewWaitGroup returns a WaitGroup bound to rt.
func NewWaitGroup(rt *Virtual) *WaitGroup {
	return &WaitGroup{parked: waitList{k: rt}}
}

// Init binds a WaitGroup embedded by value in its owner to rt: a zero one,
// or one a recycled owner used before, whose tasks have all exited and whose
// waiters have all resumed. That one keeps its waiters' Selectors.
func (wg *WaitGroup) Init(rt *Virtual) {
	if wg.n != 0 {
		panic("simtime: Init of a WaitGroup still counting tasks")
	}
	wg.parked.k, wg.parked.n = rt, 0
	for _, s := range wg.parked.sels {
		s.k = rt
	}
}

// waitList parks tasks until its next release. Their selectors are kept and
// reused from one release to the next: a waiter that has been readied does
// not look at its selector again, so the next round may take it before that
// waiter has resumed.
type waitList struct {
	k    *Virtual
	sels []*Selector
	n    int // sels[:n] parked, or gave up, in this round
}

func (l *waitList) wait(ctx context.Context) error {
	if l.n == len(l.sels) {
		l.sels = append(l.sels, &Selector{k: l.k})
	}
	s := l.sels[l.n]
	l.n++
	s.Reset()
	_, err := s.wait(ctx, 0, "waiter")
	return err
}

// release readies the round's waiters, in arrival order.
func (l *waitList) release() {
	parked := l.sels[:l.n]
	l.n = 0
	for _, s := range parked {
		s.TryWake(0)
	}
}

// Add adds delta to the counter. It panics if the counter goes negative.
func (wg *WaitGroup) Add(delta int) {
	if wg.n += delta; wg.n < 0 {
		panic("simtime: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.parked.release()
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
	return wg.parked.wait(ctx)
}
