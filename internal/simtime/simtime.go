// Package simtime provides the runtime abstraction that every component of
// this repository blocks through: sleeping, queue waits, and device
// occupancy all go through a Runtime.
//
// One implementation exists: Virtual, a deterministic discrete-event kernel.
// Runtime stays an interface only so that signatures taking one keep
// compiling; every constructor here asserts *Virtual. The rest of this
// comment is the kernel's contract.
//
// One task at a time. Tasks spawned with Go, GoDaemon or Run are coroutines
// resumed by one kernel loop: exactly one runs, until it parks in Sleep,
// Waiter.Wait, Selector.Wait/Select, WaitGroup.Wait or Barrier.Wait, or
// returns. A wake — TryWake, Waiter.Wake, Gate.Pulse, a timer firing —
// runs nothing: it appends the woken task to a ready queue ordered by (wake
// time, wake sequence). A park hands control to the head of that queue, or
// advances the clock to the earliest timer when it is empty. Order within a
// virtual instant is therefore a pure function of the program on any core
// count. Selector.Retime does less than a wake: it moves the deadline of
// the task parked on the selector and readies nobody — a task is resumed
// when it has something to do, and a completion time that moved is not
// that. It returns false when nobody is parked there (the owner is running,
// readied, or yet to park) and has then changed nothing. The price of one
// task at a time: a task that blocks on an ordinary Go primitive (a
// channel, a sync.WaitGroup, a mutex held by a parked task) waiting for
// another task stalls the whole kernel, not just itself — and that includes
// caller code the kernel runs on a task, such as the body of a
// Session.Batches or StreamAll loop waiting for another tenant's body.
//
// Untracked goroutines (a test, main, one goroutine per tenant) may call
// Go, GoDaemon, Run, Drain, Tasks, Stats, Now, TryWake, Retime, Wake and
// WithCancel's cancel functions: those work under the kernel lock and start
// the loop if it is idle, in whatever order the goroutines arrive. They must not
// park: a parking call made while no task is running panics.
//
// Ownership. State that only the running task can touch carries no lock:
// queue.Queue, device.Device, Gate, core.Profiler and core's ordered buffer
// are plain data, used from kernel tasks only (or, like any plain value, by
// one goroutine with no kernel at all). What the facade also reaches from
// untracked goroutines while tasks run keeps its mutex: storage.PageCache,
// matcache.Cache, data.Pool, netsim.Fabric, trace.Recorder, storage.Disk's
// slowdown timeline, cluster admission. Nothing asserts the rule at run time;
// the race detector does: a coroutine switch and k.mu both carry
// happens-before edges, so an untracked goroutine reaching lock-free state
// while a task uses it is a reported race under go test -race.
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
	// Now returns the virtual time elapsed since the runtime was created.
	Now() time.Duration
	// Sleep pauses the calling task for d of simulated time, or until ctx
	// is done, whichever comes first. It returns ctx.Err() when interrupted.
	Sleep(ctx context.Context, d time.Duration) error
	// Go spawns a tracked task. Time cannot advance while any tracked task
	// is runnable.
	Go(name string, fn func())
	// NewWaiter returns a parking primitive for building blocking
	// structures (queues, semaphores) on top of the runtime.
	NewWaiter() *Waiter
}

// WithCancel is context.WithCancel for contexts that tasks of rt park
// under. The returned cancel function is a kernel event: tasks parked under
// the context, or one derived from it, are readied before it returns.
func WithCancel(rt Runtime, parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	k := rt.(*Virtual)
	return ctx, func() { cancel(); k.pollCancelled() }
}

// GoDaemon spawns fn as a daemon task of rt (see Virtual.GoDaemon).
func GoDaemon(rt Runtime, name string, fn func()) { rt.(*Virtual).GoDaemon(name, fn) }

// Waiter is a one-shot parking primitive. A task calls Wait to park; another
// task calls Wake to unpark it. A Waiter may be woken before Wait is called,
// in which case Wait returns immediately. Waiters are not reusable: a Waiter
// is a Selector that is never Reset.
type Waiter struct{ sel Selector }

// Wake unparks the waiter. It reports whether the wakeup was delivered:
// false means the waiter had already been cancelled (its Wait returned with
// a context error), so the caller should wake someone else instead.
func (w *Waiter) Wake() bool {
	return w.sel.tryWake(0) != selExpired // refused by an earlier wake: still delivered
}

// Wait parks the calling task until Wake or ctx cancellation.
func (w *Waiter) Wait(ctx context.Context) error {
	_, err := w.sel.wait(ctx, 0, "waiter")
	return err
}

var _ Runtime = (*Virtual)(nil)
