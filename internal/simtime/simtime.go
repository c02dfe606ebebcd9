// Package simtime provides the runtime that every component of this
// repository blocks through: sleeping, queue waits, and device occupancy all
// go through a *Virtual, a deterministic discrete-event kernel. There is no
// interface in front of it — nothing substitutes another clock — so every
// constructor and signature names the concrete type. The rest of this comment
// is the kernel's contract.
//
// One task at a time. Tasks spawned with Go, GoDaemon or Run are coroutines
// resumed by one kernel loop: exactly one runs, until it parks in Sleep,
// Selector.Wait/Select or WaitList.Wait (under WaitGroup.Wait, Barrier.Wait
// and every blocking queue operation), or returns. A wake — TryWake,
// WaitList.WakeOne/WakeAll, Gate.Pulse, a timer firing — runs nothing: it appends the woken task to a ready queue ordered by (wake
// time, wake sequence). A park hands control to the head of that queue, or
// advances the clock to the earliest timer when it is empty. Order within a
// virtual instant is therefore a pure function of the program on any core
// count. Selector.Retime does less than a wake: it moves the deadline of
// the task parked on the selector and readies nobody — a task is resumed
// when it has something to do, and a completion time that moved is not
// that. It returns false when nobody is parked there (the owner is running,
// readied, or yet to park) and has then changed nothing. A timed park whose
// own timer is the next event — nothing ready, nothing posted — advances the
// clock itself and goes on without a switch (KernelStats.SelfWakes): what the
// loop would have done, in the order it would have done it. A task parked in
// Selector.WaitStep is not resumed by each wake either: the loop runs its
// Stepper in its turn, with it current, and the step parks it again in place
// (KernelStats.Steps) or resumes it — the same events in the same order as
// the Wait loop it replaces, less the switches. The price of one
// task at a time: a task that blocks on an ordinary Go primitive (a
// channel, a sync.WaitGroup, a mutex held by a parked task) waiting for
// another task stalls the whole kernel, not just itself — and that includes
// caller code the kernel runs on a task, such as the body of a
// Session.Batches or StreamAll loop waiting for another tenant's body, or for
// a goroutine that is itself waiting at the door.
//
// One rule. The kernel has one owner at a time: the loop, or the one task it
// has resumed. Everything here except the door (door.go), and every layer
// built on it — queue.Queue, device.Device, netsim.Fabric, storage.Disk,
// cache.Cache (the page cache and the materialized cache), WaitList, Gate,
// WaitGroup, Barrier, core's loader state — is plain data with no lock, used
// by the tasks of one kernel (or, like any plain value, by one goroutine with
// no kernel at all). A goroutine that is not a task comes in through the
// door, a mutex-guarded inbox the loop empties in arrival order between two
// tasks — the one place where order comes from the OS and not from the
// program:
//
//	Run(fn)    spawn fn as a task and wait for it to return
//	Post(fn)   have fn called on the loop between two tasks; do not wait.
//	           fn may wake, re-time, spawn, cancel; it must not park
//	Do(fn)     the same, and wait for fn to return
//	Drain      wait until no task is left
//	Stats, Tasks, TaskNames   read the kernel's counters and task list
//	Now        lock-free, from anywhere
//
// Go, GoDaemon, TryWake, WakeOne, WakeAll, Retime, Pulse and
// CancelScope.Cancel are for tasks (and posted functions). Nothing can tell
// at run time whether its caller is a task, so the split is by name: an outside entry point
// that waits (all but Post and Now), called from a task or a posted function,
// waits for a loop that is inside the caller, and hangs; a
// task-side call made from outside is a data race; a parking call made while
// no task runs panics. The race detector checks the rule — coroutine switches
// and the door carry the only happens-before edges, so outside code reaching
// kernel-owned state while a task uses it is a reported race — and an import
// test keeps sync out of the task-only packages and the facade above them,
// whose public calls each enter the kernel once. The locks that remain are
// each forced by a caller outside the kernel, and the test's allow-list names
// it: trace.Recorder (snapshot and export while sessions record), the service
// client's counters (RemoteSession.Stats from any goroutine), data.Pool's
// free-list lock over its samples, batches and counters, and its
// process-wide stock (a consumer releases its last batch after its stream
// has left the kernel), the registries, and the snapshot a
// session publishes for Session.Stats.
//
// What the kernel owns: the clock, the timers, the ready queue and the task
// list — and the run's span recorder. Trace returns it, nil when the run is
// untraced, and every layer on the kernel records its spans there; no layer
// holds a recorder of its own. SetTrace attaches it once, from the loop or
// before the first entry, and a kernel takes one recorder. The kernel also
// owns the run's storage: each layer registers what it builds (Own), and one
// teardown, Recycle, hands all of it on, called by the run's owner or by the
// outside entry that releases the kernel's last hold (Hold, Release).
//
// Cancellation is a kernel event. One context.AfterFunc per distinct
// context per kernel readies the tasks parked under it; their Sleep or Wait
// returns ctx.Err() — unless a wake got there first, which still wins — and
// the abandoned deadline is removed, so it never moves the clock. A
// CancelScope's Cancel, called by a task, does this synchronously, at the
// caller's place in the instant's order; a scope whose parent can never be
// cancelled ends by Cancel alone, so it needs no hook and gets none. Any
// other cancellation
// (context.WithCancel, a wall-clock timeout, a goroutine outside the kernel)
// lands asynchronously, posted through the door by the AfterFunc hook: the
// kernel waits for it rather than declare a deadlock, but virtual time may
// pass first if timers are pending. Code that must shut down at an exact
// instant uses a CancelScope, queue Close, or stop flags.
package simtime

import (
	"context"
	"time"
)

// CancelScope is a cancellable context for the tasks of one kernel, kept by
// value in its owner and begun again for each run. Cancel is a kernel event,
// for tasks to call: tasks parked under the context are readied before it
// returns (under a context derived from it, they may be readied later, as by
// a foreign cancellation). From outside the kernel, Post it. A scope
// begun under a parent that can never be cancelled is itself the context and
// costs one channel per run; under any other parent it wraps
// context.WithCancel.
type CancelScope struct {
	k      *Virtual
	parent context.Context
	done   chan struct{}
	err    error
	// under and cancel are context.WithCancel's, for a parent that can be
	// cancelled.
	under  context.Context
	cancel context.CancelFunc
}

// Begin starts the scope on rt under parent, ending any earlier run of it,
// and returns the context its tasks park under.
func (s *CancelScope) Begin(rt *Virtual, parent context.Context) context.Context {
	*s = CancelScope{k: rt, parent: parent}
	if parent.Done() != nil {
		s.under, s.cancel = context.WithCancel(parent)
		return s.under
	}
	s.done = make(chan struct{})
	// Only Cancel can end the scope, and it polls: park sees it as hooked.
	rt.hook(s.done, nil)
	return s
}

// Cancel ends the scope's context. A scope never begun, or cancelled
// before, is left as it is.
func (s *CancelScope) Cancel() {
	switch {
	case s.cancel != nil:
		s.cancel()
		s.k.pollCancelled()
	case s.done != nil && s.err == nil:
		s.err = context.Canceled
		close(s.done)
		s.k.pollCancelled()
	}
}

// Deadline, Done, Err and Value make a scope begun under a parent that can
// never be cancelled a context.Context.
func (s *CancelScope) Deadline() (time.Time, bool) { return s.parent.Deadline() }
func (s *CancelScope) Done() <-chan struct{}       { return s.done }
func (s *CancelScope) Err() error                  { return s.err }
func (s *CancelScope) Value(key any) any           { return s.parent.Value(key) }
