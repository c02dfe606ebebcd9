package simtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// door is the one way into a Virtual for a goroutine that is not one of its
// tasks, and the one place where order comes from the OS instead of the
// program: a mutex-guarded inbox that the loop empties, in arrival order,
// between two tasks. It also owns whether a loop goroutine exists. Everything
// else in the kernel belongs to the running thread of control and has no lock.
type door struct {
	mu     sync.Mutex
	posted atomic.Bool // the inbox is not empty: the loop's one load per task
	inbox  []entry
	spare  []entry     // the storage of the batch drained last; the loop's alone
	bufs   [2][4]entry // their first storage: few entrants at a time allocate none

	looping bool          // a loop goroutine exists
	loop    func()        // the kernel's loop, bound once: starting one allocates no closure
	drained chan struct{} // made by a Drain that has to wait; closed when no task is left

	// The deadlock check: one timer, re-armed by each retire that leaves tasks
	// parked (at idle, zero otherwise) and stopped by the next start.
	stall *time.Timer
	idle  time.Time
}

// entry asks the loop to spawn call(arg) as a task called name or, with no
// name, to make the call itself; done, if any, is signalled once the call has
// ended.
type entry struct {
	call func(any)
	arg  any
	name string
	done chan struct{}
}

// dones recycles the completion channels Run and Do wait on: each is
// signalled once and received once, so a waited entry allocates nothing,
// whatever the GC collected meanwhile. The bound is the most entrants the
// benchmark workloads have waiting at once: warm-tenants16's 16 tenants.
var dones = NewStock[chan struct{}](16)

// wait posts e with a completion channel and waits for its signal.
func (k *Virtual) wait(e entry) {
	done, ok := dones.Get()
	if !ok {
		done = make(chan struct{}, 1)
	}
	e.done = done
	k.post(e)
	<-done
	dones.Put(done)
}

// Post has fn called on the kernel's loop, between two tasks, after everything
// posted before it, and returns at once. fn owns the kernel while it runs (it
// may wake, re-time, spawn, cancel) but is not a task: it must not park. Any
// goroutine may Post, tasks and posted functions included; it restarts an idle
// kernel.
func (k *Virtual) Post(fn func()) { k.post(entry{call: callFunc, arg: fn}) }

func (k *Virtual) post(e entry) {
	d := &k.door
	d.mu.Lock()
	d.inbox = append(d.inbox, e)
	d.posted.Store(true)
	if !d.looping {
		d.start(k)
	}
	d.mu.Unlock()
}

// start starts a loop goroutine; d.mu is held and none exists.
func (d *door) start(k *Virtual) {
	d.looping = true
	if !d.idle.IsZero() {
		d.idle = time.Time{}
		d.stall.Stop()
	}
	if d.loop == nil {
		d.loop = k.loop
	}
	go d.loop()
}

// Run executes fn as a tracked task and blocks the caller, which must not be
// a task or a posted function itself, until it returns: the entry point for a
// test, a main function, or one goroutine per tenant.
func (k *Virtual) Run(fn func()) {
	// Goroutines entering side by side are started together: yielding here,
	// and once more when the loop starts, lets them all post before the
	// first task runs, even on one CPU.
	runtime.Gosched()
	k.wait(entry{name: "run", call: callFunc, arg: fn})
}

// RunWith is Run for a body that takes its state as an argument: call(arg)
// runs as the task. With call a top-level function or method expression and
// arg a pointer, the entry allocates nothing, where a closure over arg would.
func (k *Virtual) RunWith(call func(any), arg any) {
	runtime.Gosched() // see Run
	k.wait(entry{name: "run", call: call, arg: arg})
}

// Do has fn called on the loop like Post, and waits for it to return. Not for
// tasks or posted functions: the loop they would wait for is inside the caller.
func (k *Virtual) Do(fn func()) { k.wait(entry{call: callFunc, arg: fn}) }

// Stats returns the kernel's counters. Like Tasks, TaskNames and Drain it is
// for callers outside the kernel (each is a Do, or waits like one).
func (k *Virtual) Stats() (st KernelStats) {
	k.Do(func() { st = k.stats })
	return st
}

// Tasks returns the number of live tracked tasks.
func (k *Virtual) Tasks() (n int) {
	k.Do(func() { n = len(k.live) })
	return n
}

// TaskNames returns the names of the live tracked tasks, in no order.
func (k *Virtual) TaskNames() (names []string) {
	k.Do(func() {
		for _, t := range k.live {
			names = append(names, t.name)
		}
	})
	return names
}

// Drain blocks the caller until every tracked task has exited.
func (k *Virtual) Drain() {
	d := &k.door
	d.mu.Lock()
	if !d.looping && len(k.live) == 0 {
		d.mu.Unlock()
		return
	}
	if d.drained == nil {
		d.drained = make(chan struct{})
	}
	ch := d.drained
	d.mu.Unlock()
	<-ch
}

// drainInbox runs what was posted since the last look, in arrival order.
func (k *Virtual) drainInbox() {
	d := &k.door
	d.mu.Lock()
	batch := d.inbox
	d.inbox, d.spare = d.spare, nil
	d.posted.Store(false)
	d.mu.Unlock()
	for i, e := range batch {
		batch[i] = entry{}
		if e.name != "" {
			k.spawn(e.name, e.call, e.arg, false).ran = e.done
		} else {
			e.call(e.arg)
			if e.done != nil {
				e.done <- struct{}{}
			}
		}
	}
	d.spare = batch[:0]
}

// retire ends the loop unless something was posted meanwhile. If that leaves
// non-daemon tasks parked with nothing scheduled to wake them, only a Post (an
// asynchronous cancellation, say) or a Run can restart it: none within
// stallGrace is a deadlock.
func (k *Virtual) retire() bool {
	d := &k.door
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.inbox) > 0 {
		return false
	}
	d.looping = false
	if len(k.live) == 0 {
		if d.drained != nil {
			close(d.drained)
			d.drained = nil
		}
	} else if len(k.live) > k.daemons {
		d.idle = time.Now()
		if d.stall == nil {
			d.stall = time.AfterFunc(stallGrace, k.stalled)
		}
		d.stall.Reset(stallGrace)
	}
	return true
}

// stalled is the deadlock check's timer callback. A call that start's Stop
// came too late for finds the kernel running, or idle for less than the grace.
func (k *Virtual) stalled() {
	d := &k.door
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.idle.IsZero() && time.Since(d.idle) >= stallGrace {
		panic(k.deadlock())
	}
}

const stallGrace = 2 * time.Second
