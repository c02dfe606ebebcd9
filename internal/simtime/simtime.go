// Package simtime provides the runtime abstraction that every component of
// this repository blocks through: sleeping, queue waits, and device
// occupancy all go through a Runtime.
//
// Two implementations exist. Real wraps the wall clock with a scale factor
// and is what a downstream user embeds in an actual application. Virtual is
// a deterministic discrete-event kernel; the rest of this comment is its
// contract.
//
// One task at a time. Tasks spawned with Go, GoDaemon or Run are coroutines
// resumed by one kernel loop: exactly one runs, until it parks in Sleep,
// Waiter.Wait, Selector.Wait/Select, WaitGroup.Wait or Barrier.Wait, or
// returns. A wake — TryWake, Waiter.Wake, Gate.Pulse, a timer firing —
// runs nothing: it appends the woken task to a ready queue ordered by (wake
// time, wake sequence). A park hands control to the head of that queue, or
// advances the clock to the earliest timer when it is empty. Order within a
// virtual instant is therefore a pure function of the program on any core
// count, and no lock of any layer is ever contended between tasks. The
// price: a task that blocks on an ordinary Go primitive (a channel, a
// sync.WaitGroup, a mutex held by a parked task) waiting for another task
// stalls the whole kernel, not just itself — and that includes caller code
// the kernel runs on a task, such as the body of a Session.Batches or
// StreamAll loop waiting for another tenant's body.
//
// Untracked goroutines (a test, main, one goroutine per tenant) may call
// Go, GoDaemon, Run, Drain, Tasks, Now, TryWake, Wake, Pulse and WithCancel's
// cancel functions: those enqueue under the kernel lock and start the loop
// if it is idle, in whatever order the goroutines arrive. They must not
// park: a parking call made while no task is running panics.
//
// Cancellation is a kernel event. One context.AfterFunc per distinct
// context per kernel readies the tasks parked under it; their Sleep or Wait
// returns ctx.Err() — unless a wake got there first, which still wins — and
// the abandoned deadline is removed, so it never moves the clock. A
// WithCancel cancel function does this synchronously, at the caller's place
// in the instant's order. Any other cancellation (context.WithCancel, a
// wall-clock timeout, an untracked goroutine) lands asynchronously: the
// kernel waits for it rather than declare a deadlock, but virtual time may
// pass first if timers are pending. Code that must shut down at an exact
// instant uses WithCancel, queue Close, or stop flags.
package simtime

import (
	"context"
	"time"
)

// Runtime is the clock and scheduler abstraction used by all pipeline
// components.
type Runtime interface {
	// Now returns the elapsed (virtual or scaled real) time since the
	// runtime was created.
	Now() time.Duration
	// Sleep pauses the calling task for d of simulated time, or until ctx
	// is done, whichever comes first. It returns ctx.Err() when interrupted.
	Sleep(ctx context.Context, d time.Duration) error
	// Go spawns a tracked task. Under Virtual, time cannot advance while
	// any tracked task is runnable.
	Go(name string, fn func())
	// NewWaiter returns a parking primitive for building blocking
	// structures (queues, semaphores) on top of the runtime.
	NewWaiter() *Waiter
}

// WithCancel is context.WithCancel for contexts that tasks of rt park
// under. Under Virtual the returned cancel function is a kernel event: tasks
// parked under the context, or one derived from it, are readied before it
// returns.
func WithCancel(rt Runtime, parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	if k, ok := rt.(*Virtual); ok {
		return ctx, func() { cancel(); k.pollCancelled() }
	}
	return ctx, cancel
}

// GoDaemon spawns fn as a daemon task when rt is the Virtual kernel (see
// Virtual.GoDaemon) and as an ordinary task otherwise — wall-clock
// runtimes have no deadlock detection to exempt a server task from.
func GoDaemon(rt Runtime, name string, fn func()) {
	if v, ok := rt.(*Virtual); ok {
		v.GoDaemon(name, fn)
		return
	}
	rt.Go(name, fn)
}

// Waiter is a one-shot parking primitive. A task calls Wait to park; another
// task calls Wake to unpark it. A Waiter may be woken before Wait is called,
// in which case Wait returns immediately. Waiters are not reusable: a Waiter
// is a Selector that is never Reset.
type Waiter struct{ sel Selector }

// Wake unparks the waiter. It reports whether the wakeup was delivered:
// false means the waiter had already been cancelled (its Wait returned with
// a context error), so the caller should wake someone else instead.
func (w *Waiter) Wake() bool {
	return w.sel.TryWake(0) || w.sel.state.Load() == selWoken // refused: the state is final
}

// Wait parks the calling task until Wake or ctx cancellation.
func (w *Waiter) Wait(ctx context.Context) error {
	_, err := w.sel.wait(ctx, 0, "waiter")
	return err
}

// Real is a wall-clock runtime. Scale compresses simulated time: with
// Scale=100, a simulated second passes in 10ms of wall time. Scale=1 is
// real time.
type Real struct {
	start time.Time
	scale float64
}

// NewReal returns a wall-clock runtime with the given compression factor.
// scale values below 1 are clamped to 1.
func NewReal(scale float64) *Real {
	if scale < 1 {
		scale = 1
	}
	return &Real{start: time.Now(), scale: scale}
}

// Now returns scaled elapsed wall time.
func (r *Real) Now() time.Duration {
	return time.Duration(float64(time.Since(r.start)) * r.scale)
}

// Sleep pauses for d of simulated time (d/scale of wall time).
func (r *Real) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(time.Duration(float64(d) / r.scale))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Go spawns fn as an ordinary goroutine.
func (r *Real) Go(name string, fn func()) {
	_ = name
	go fn()
}

// NewWaiter returns a channel-backed parking primitive.
func (r *Real) NewWaiter() *Waiter { return &Waiter{sel: *NewSelector(r)} }

var (
	_ Runtime = (*Virtual)(nil)
	_ Runtime = (*Real)(nil)
)
