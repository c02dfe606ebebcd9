package simtime

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/trace"
)

// Virtual is a deterministic discrete-event runtime: a run-to-park kernel.
// One loop goroutine resumes one task coroutine at a time; time advances to
// the earliest pending timer whenever no task is ready (package comment).
// Everything below door belongs to the running thread of control — the loop,
// or the one task it has resumed — and is touched with no lock.
type Virtual struct {
	door door // the way in from outside (door.go)

	// now (a time.Duration) is atomic only so that Now may be called from
	// anywhere: time advances between tasks, or under the one that is running.
	now atomic.Int64
	cur *task  // the running task; nil between tasks
	seq uint64 // timer sequence: the tie-break between equal deadlines

	ready   []*task // woken at the current instant, in wake order, from rhead
	rhead   int
	timers  timerHeap
	live    []*task // every unfinished task
	daemons int     // how many of them are daemons (see GoDaemon)
	stats   KernelStats
	// hooks holds the context.AfterFunc registration (its stop function) of
	// every cancellable context a task has parked under, by Done channel; a
	// nil one for a CancelScope that only its Cancel ends.
	hooks map[<-chan struct{}]func() bool
	// trace is the span recorder of every layer on this kernel; nil when the
	// run is untraced (SetTrace).
	trace *trace.Recorder
	// owned is the run's storage, in order of registration (Own); holds
	// counts the holders that keep it (Hold).
	owned []Recycler
	holds int
	// sels are the selectors of finished Waits (WaitList), for the next.
	sels []*Selector
}

// KernelStats counts the kernel's own work since NewVirtual: the coroutine
// round trips a simulation costs, whatever the layers above call them.
type KernelStats struct {
	Spawns     uint64 // tasks started (Go, GoDaemon, Run)
	Parks      uint64 // times a task gave up the kernel in Sleep or a Wait
	TimedParks uint64 // the parks that armed a timer
	SelfWakes  uint64 // the timed parks that were next in line themselves: no switch
	Wakes      uint64 // parked tasks readied: by a wake, a timer or a cancellation
	Retimes    uint64 // deadlines moved under a parked task (Selector.Retime)
	Steps      uint64 // the parks a wake step made on the loop, in its task's turn: no switch
}

// queues is the storage of a kernel's ready queue, timer heap, task list,
// cancellation hooks, teardown list and spare selectors: what Recycle hands
// from a retired kernel to a new one.
type queues struct {
	ready, live []*task
	timers      timerHeap
	hooks       map[<-chan struct{}]func() bool
	owned       []Recycler
	sels        []*Selector
}

// retired holds the queues of recycled kernels, process-wide. Every benchmark
// workload retires one kernel at a time: its peak is 1.
var retired = NewStock[queues](1)

// NewVirtual returns a virtual runtime starting at time zero. Its queues
// start with the storage of a kernel recycled before it, if there is one.
func NewVirtual() *Virtual {
	k := &Virtual{}
	if q, ok := retired.Get(); ok {
		k.ready, k.live, k.timers, k.hooks, k.owned, k.sels = q.ready, q.live, q.timers, q.hooks, q.owned, q.sels
	}
	k.door.inbox, k.door.spare = k.door.bufs[0][:0], k.door.bufs[1][:0]
	return k
}

// Recycler is storage a run builds on a kernel and hands back to its stocks
// at the run's teardown: a device's entries, a fabric's flows, a cache's
// slabs, a sample pool's free lists.
type Recycler interface{ Recycle() }

// Own registers r with the kernel's teardown: Recycle calls r.Recycle once,
// after its drain. A layer registers what it builds on the kernel when it
// builds it. Like Go, it is for tasks and posted functions, or for a kernel
// nobody has entered yet.
func (k *Virtual) Own(r Recycler) { k.owned = append(k.owned, r) }

// Hold and Release count the kernel's holders, the long-lived owners of what
// runs on it (a cluster, a server); Held reports whether one is left. The
// outside entry in which the last hold goes recycles the kernel (Recycle).
// Like Go, they are for tasks and posted functions.
func (k *Virtual) Hold()      { k.holds++ }
func (k *Virtual) Release()   { k.holds-- }
func (k *Virtual) Held() bool { return k.holds > 0 }

// Recycle is the kernel's one teardown: like Drain it waits for every task to
// exit, then calls each registered Recycler once, last registered first, and
// hands the storage of the kernel's queues to the next NewVirtual. It is for
// the kernel's owner or the outside entry that released its last hold, not
// for tasks, posted functions or a kernel a server's daemons still live on.
// A kernel entered again meanwhile keeps its storage. The kernel stays usable,
// growing new storage if it runs again; a second Recycle recycles nothing.
func (k *Virtual) Recycle() {
	k.Drain()
	d := &k.door
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.looping || len(k.live) > 0 {
		return
	}
	for i := len(k.owned) - 1; i >= 0; i-- {
		k.owned[i].Recycle()
		k.owned[i] = nil
	}
	k.unhook()
	if cap(k.live) > 0 || cap(k.owned) > 0 { // else no task ran, nothing registered
		retired.Put(queues{ready: k.ready[:0], live: k.live[:0], timers: k.timers[:0], hooks: k.hooks, owned: k.owned[:0], sels: k.sels})
	}
	k.ready, k.rhead, k.live, k.timers, k.hooks, k.owned, k.sels = nil, 0, nil, nil, nil, nil, nil
}

// Trace returns the recorder every layer on this kernel records its spans
// into, or nil when the run is untraced.
func (k *Virtual) Trace() *trace.Recorder { return k.trace }

// SetTrace attaches r as the kernel's recorder. A kernel takes one: nil and
// the recorder already attached are no-ops, and a different one is an error.
// Like Go, it is for tasks and posted functions, or for a kernel nobody has
// entered yet.
func (k *Virtual) SetTrace(r *trace.Recorder) error {
	if r == nil || r == k.trace {
		return nil
	}
	if k.trace != nil {
		return errors.New("the runtime already records into another trace sink")
	}
	k.trace = r
	return nil
}

// Now returns the current virtual time, lock-free.
func (k *Virtual) Now() time.Duration { return time.Duration(k.now.Load()) }

// Go spawns fn as a tracked task, from a task (or a posted function). It
// starts when the spawner parks.
func (k *Virtual) Go(name string, fn func()) { k.spawn(name, callFunc, fn, false) }

// GoDaemon spawns fn as a tracked daemon task. Daemons schedule exactly
// like ordinary tasks, but a kernel left with nothing runnable, no pending
// timers, and only daemons parked is idle rather than deadlocked — the shape
// of a network server waiting on its inbox after every client has exited.
// Daemons still count toward Drain; whoever spawns one owns shutting it down.
func (k *Virtual) GoDaemon(name string, fn func()) { k.spawn(name, callFunc, fn, true) }

// callFunc is the body of a task or entry made from a func(), which is its
// argument: a func value is pointer-shaped, so boxing it allocates nothing.
func callFunc(fn any) { fn.(func())() }

// spawn starts call(arg) as a task.
func (k *Virtual) spawn(name string, call func(any), arg any, daemon bool) *task {
	t := getTask()
	t.k, t.name, t.call, t.arg, t.daemon = k, name, call, arg, daemon
	if daemon {
		k.daemons++
	}
	t.lidx = len(k.live)
	k.live = append(k.live, t)
	k.stats.Spawns++
	k.makeReady(t)
	return t
}

// Sleep pauses the calling task for d of virtual time.
func (k *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil || d <= 0 {
		return err
	}
	if k.park(ctx, "sleep", d, nil) {
		return ctx.Err()
	}
	return nil
}

// park suspends the running task until its deadline (d > 0), a wake on s, or
// cancellation of ctx readies it, and reports whether cancellation did.
func (k *Virtual) park(ctx context.Context, on string, d time.Duration, s *Selector) (cancelled bool) {
	t := k.running(on)
	if !k.suspend(t, ctx, on, d, s) {
		t.yield(struct{}{})
	}
	cancelled, t.cancelled = t.cancelled, false
	return cancelled
}

// running returns the running task, for a park on on.
func (k *Virtual) running(on string) *task {
	if k.cur == nil {
		panic("simtime: " + on + " park outside a kernel task: only tasks spawned with Go, GoDaemon or Run may block on a Virtual runtime")
	}
	return k.cur
}

// suspend parks t, the running task, until its deadline (d > 0), a wake on s
// or cancellation of ctx readies it: a park's bookkeeping, for the task itself
// or for a wake step served in its turn. It reports whether t's own timer was
// the next event and has fired, so that t runs on without a switch.
func (k *Virtual) suspend(t *task, ctx context.Context, on string, d time.Duration, s *Selector) (selfWoken bool) {
	t.on, t.sel, t.done = on, s, ctx.Done()
	if s != nil {
		s.owner = t
	}
	k.stats.Parks++
	if d > 0 {
		k.stats.TimedParks++
		k.timers.place(len(k.timers), timer{at: k.Now() + d, seq: k.seq, t: t})
		k.seq++
	}
	if t.done != nil {
		if _, hooked := k.hooks[t.done]; !hooked {
			// For cancellations the kernel cannot see happen.
			k.hook(t.done, context.AfterFunc(ctx, k.cancelled))
		}
		k.cancelIfDone(t) // already cancelled: straight to the ready queue
	}
	if k.rhead == len(k.ready) && len(k.timers) > 0 && k.timers[0].t == t && !k.door.posted.Load() {
		// Nothing is ready, nothing was posted and t's own timer is the next
		// event: the loop would advance the clock and switch straight back.
		// Do its work here — t first, then whatever else is due behind it.
		k.stats.SelfWakes++
		k.fireTimers()
		k.ready[0], k.rhead = nil, 1 // t, at the head, is already running
		return true
	}
	return false
}

// hook records the cancellation hook of a Done channel.
func (k *Virtual) hook(done <-chan struct{}, stop func() bool) {
	if k.hooks == nil {
		k.hooks = make(map[<-chan struct{}]func() bool)
	}
	k.hooks[done] = stop
}

// unhook drops every cancellation hook, so that a long-lived context does not
// pin an idle kernel.
func (k *Virtual) unhook() {
	for done, stop := range k.hooks {
		if stop != nil {
			stop()
		}
		delete(k.hooks, done)
	}
}

// makeReady appends t to the ready queue: it runs at the current instant,
// after everything readied before it.
func (k *Virtual) makeReady(t *task) {
	if t.hidx >= 0 {
		k.timers.remove(t)
	}
	if s := t.sel; s != nil {
		s.owner, t.sel = nil, nil
	}
	if t.on != "" {
		k.stats.Wakes++
	}
	t.on, t.done = "", nil
	k.ready = append(k.ready, t)
}

// cancelIfDone readies t if the context it is parked under has been
// cancelled, and reports whether it did.
func (k *Virtual) cancelIfDone(t *task) bool {
	select {
	case <-t.done: // never ready when nil
		t.cancelled = true
		if t.sel != nil {
			t.sel.state = selExpired
		}
		k.makeReady(t)
		return true
	default:
		return false
	}
}

// cancelled is the AfterFunc hook: a cancellation seen from some goroutine.
func (k *Virtual) cancelled() { k.Post(func() { k.pollCancelled() }) }

// pollCancelled readies every task parked under a cancelled context, in
// k.live order, and reports whether there was one. A scan: cancellation is a
// teardown event, parks are the hot path.
func (k *Virtual) pollCancelled() (woke bool) {
	for _, t := range k.live {
		woke = k.cancelIfDone(t) || woke
	}
	return woke
}

// loop drains the door and resumes ready tasks one at a time until there is
// nothing left to run (see retire).
func (k *Virtual) loop() {
	runtime.Gosched() // see Run
	returned := false
	defer func() {
		if returned {
			return
		}
		if p := recover(); p != nil {
			panic(p) // a task panicked: crash, as an uncaught goroutine panic does
		}
		// The running task called runtime.Goexit (t.FailNow off the test
		// goroutine): its deferred calls ran, it finished, and its coroutine
		// took this goroutine with it. Carry on in a new one.
		k.finish(k.cur, false)
		go k.door.loop()
	}()
	n, alone := 0, runtime.GOMAXPROCS(0) == 1
	for {
		if k.door.posted.Load() {
			k.drainInbox()
		}
		t := k.next()
		if t == nil {
			if k.retire() {
				break
			}
			continue
		}
		k.cur = t
		if n++; alone && n%64 == 0 {
			// On one CPU nothing else runs while the loop does: let waiting
			// entrants in now, not at the 10ms preemption tick. A turn
			// served by a wake step counts too.
			runtime.Gosched()
		}
		if t.step.st != nil && k.serve(t) {
			k.cur = nil
			continue // t parked again, without a switch
		}
		t.next() // returns when t has parked or finished
		k.cur = nil
		if t.call == nil {
			k.finish(t, true)
		}
	}
	returned = true
}

// serve runs the wake step of t, parked in Selector.WaitStep and now at the
// head of the ready queue, in t's turn and with t current, and reports
// whether the step parked t again. False means t resumes: its step is done,
// or its context was cancelled (a cancelled task is never stepped). A step
// whose own arming claimed the cycle runs again at once, as Wait would
// return at once.
func (k *Virtual) serve(t *task) (parked bool) {
	w := &t.step
	for !t.cancelled {
		d, wait := w.st.Step()
		if !wait {
			w.st = nil
			return false
		}
		if w.sel.state == selWoken {
			continue
		}
		k.stats.Steps++
		if !k.suspend(t, w.ctx, "selector", d, w.sel) {
			return true
		}
	}
	return false
}

// next returns the next task to run, advancing virtual time when nothing is
// ready at the current instant; nil when the kernel is idle.
func (k *Virtual) next() *task {
	for {
		if k.rhead < len(k.ready) {
			t := k.ready[k.rhead]
			k.ready[k.rhead] = nil
			k.rhead++
			return t
		}
		if len(k.timers) > 0 {
			k.fireTimers()
		} else if k.ready, k.rhead = k.ready[:0], 0; !k.pollCancelled() {
			return nil
		}
	}
}

// fireTimers advances the clock to the earliest deadline: everything due then
// becomes ready, in the order the timers were armed. Nothing else is ready.
func (k *Virtual) fireTimers() {
	k.ready, k.rhead = k.ready[:0], 0
	now := k.timers[0].at
	k.now.Store(int64(now))
	for len(k.timers) > 0 && k.timers[0].at == now {
		t := k.timers[0].t
		if t.sel != nil {
			t.sel.state = selWoken
			t.sel.idx = Heartbeat
		}
		k.makeReady(t)
	}
}

// deadlock describes the stuck kernel: each task and what it parked on.
func (k *Virtual) deadlock() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simtime: deadlock at t=%v: %d tasks alive, none runnable, no pending timers", k.Now(), len(k.live))
	for _, t := range k.live {
		fmt.Fprintf(&b, "\n\ttask %q (daemon=%v) parked on %s", t.name, t.daemon, t.on)
	}
	return b.String()
}

func (k *Virtual) finish(t *task, reuse bool) {
	last := len(k.live) - 1
	moved := k.live[last]
	k.live[t.lidx], moved.lidx = moved, t.lidx
	k.live[last] = nil
	k.live = k.live[:last]
	if t.daemon {
		k.daemons--
	}
	if last == 0 {
		k.unhook()
	}
	t.k, t.name = nil, ""
	if reuse {
		putTask(t)
	}
}

// task is a tracked task and the coroutine that carries it. The coroutine
// outlives the task: when the body returns it yields to the loop once more
// and stays parked there, on the free list, until getTask hands it a new body.
type task struct {
	next  func() (struct{}, bool) // loop side: switch to the coroutine
	stop  func()
	yield func(struct{}) bool // task side: switch back to the loop

	k      *Virtual
	name   string
	call   func(any) // the body is call(arg); nil once it has finished
	arg    any
	wg     *WaitGroup    // counts this task (WaitGroup.Go): Done when the body ends
	ran    chan struct{} // Run's caller waits on it: signalled when the body ends
	daemon bool
	lidx   int // index in k.live

	// Park state.
	on        string          // "sleep", "selector" or "waiter" while parked
	sel       *Selector       // the selector parked on, if any
	done      <-chan struct{} // Done of the context parked under, if any
	hidx      int             // index in k.timers, -1 when no timer is armed
	cancelled bool
	step      waitStep // while in Selector.WaitStep with a step to serve
}

// waitStep is what the loop serves a task parked in Selector.WaitStep with:
// its step, its selector and the context it parks under.
type waitStep struct {
	st  Stepper
	sel *Selector
	ctx context.Context
}

func (t *task) coroutine(yield func(struct{}) bool) {
	t.yield = yield
	for {
		t.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run calls the body and, however it ends, leaves the task marked finished.
// A group the task was spawned into is Done, and a Run caller signalled, once
// the body has ended — returned, panicked or exited — and before the task is
// marked finished.
func (t *task) run() {
	defer func() {
		if p := recover(); p != nil {
			// The loop re-panics with this value; keep the stack that the
			// coroutine switch would lose.
			panic(fmt.Sprintf("simtime: task %q panicked: %v\n\n%s", t.name, p, debug.Stack()))
		}
		t.call, t.arg = nil, nil
	}()
	if wg := t.wg; wg != nil {
		t.wg = nil
		defer wg.Done()
	}
	if ran := t.ran; ran != nil {
		t.ran = nil
		defer func() { ran <- struct{}{} }()
	}
	t.call(t.arg)
}

// timerHeap is a min-heap of timers by (deadline, arm sequence), a strict
// total order, held inline: a sift compares neighbours in one array and moves
// entries into a hole. Each task knows its timer's index, so a wake or a
// cancellation removes the timer at once and an abandoned deadline never
// reaches the top.
type timerHeap []timer

// timer is a parked task's deadline and the sequence it was armed or
// re-timed at, the tie-break between equal deadlines.
type timer struct {
	at  time.Duration
	seq uint64
	t   *task
}

func (a *timer) before(b *timer) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// remove takes t's timer out of the heap.
func (h *timerHeap) remove(t *task) {
	i, last := t.hidx, len(*h)-1
	t.hidx = -1
	moved := (*h)[last]
	(*h)[last] = timer{}
	*h = (*h)[:last]
	if i < last {
		h.place(i, moved)
	}
}

// place puts tm where it belongs, given a hole at i (len(*h) to add it): up
// while it is before its parent, else down while a child is before it.
func (h *timerHeap) place(i int, tm timer) {
	if i == len(*h) {
		*h = append(*h, timer{})
	}
	q := *h
	for parent := (i - 1) / 2; i > 0 && tm.before(&q[parent]); parent = (i - 1) / 2 {
		q[i] = q[parent]
		q[i].t.hidx = i
		i = parent
	}
	for {
		child := 2*i + 1
		if child+1 < len(q) && q[child+1].before(&q[child]) {
			child++
		}
		if child >= len(q) || !q[child].before(&tm) {
			break
		}
		q[i] = q[child]
		q[i].t.hidx = i
		i = child
	}
	q[i], tm.t.hidx = tm, i
}
