package simtime

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a deterministic discrete-event runtime: a run-to-park kernel.
// One loop goroutine resumes one task coroutine at a time; time advances to
// the earliest pending timer whenever no task is ready (package comment).
type Virtual struct {
	// mu guards everything below. A parking task takes it and yields to the
	// loop with it held; the loop releases it before resuming a task.
	mu sync.Mutex
	// now (a time.Duration) is written under mu but read lock-free by Now:
	// time only advances between tasks, so a running task can never observe
	// a concurrent advance.
	now atomic.Int64
	cur *task  // the running task; nil between tasks
	seq uint64 // timer sequence: the tie-break between equal deadlines

	ready   []*task // woken at the current instant, in wake order, from rhead
	rhead   int
	timers  timerHeap
	live    []*task       // every unfinished task
	daemons int           // how many of them are daemons (see GoDaemon)
	idle    chan struct{} // closed when live empties; replaced on spawn

	looping bool   // a loop goroutine exists
	starts  uint64 // how many have been started
	stats   KernelStats
	// hooks holds the context.AfterFunc registration (its stop function) of
	// every cancellable context a task has parked under, by Done channel.
	hooks map[<-chan struct{}]func() bool
}

// KernelStats counts the kernel's own work since NewVirtual: the coroutine
// round trips a simulation costs, whatever the layers above call them.
type KernelStats struct {
	Spawns     uint64 // tasks started (Go, GoDaemon, Run)
	Parks      uint64 // times a task gave up the kernel in Sleep or a Wait
	TimedParks uint64 // the parks that armed a timer
	Wakes      uint64 // parked tasks readied: by a wake, a timer or a cancellation
	Retimes    uint64 // deadlines moved under a parked task (Selector.Retime)
}

// Stats returns the kernel's counters.
func (k *Virtual) Stats() KernelStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stats
}

// NewVirtual returns a virtual runtime starting at time zero.
func NewVirtual() *Virtual {
	idle := make(chan struct{})
	close(idle)
	return &Virtual{idle: idle, hooks: make(map[<-chan struct{}]func() bool)}
}

// Now returns the current virtual time, lock-free.
func (k *Virtual) Now() time.Duration { return time.Duration(k.now.Load()) }

// Go spawns fn as a tracked task. It starts when the spawner parks.
func (k *Virtual) Go(name string, fn func()) { k.spawn(name, fn, false) }

// GoDaemon spawns fn as a tracked daemon task. Daemons schedule exactly
// like ordinary tasks, but a kernel left with nothing runnable, no pending
// timers, and only daemons parked is idle rather than deadlocked — the shape
// of a network server waiting on its inbox after every client has exited.
// Daemons still count toward Drain; whoever spawns one owns shutting it down.
func (k *Virtual) GoDaemon(name string, fn func()) { k.spawn(name, fn, true) }

func (k *Virtual) spawn(name string, fn func(), daemon bool) {
	t := getTask()
	t.k, t.name, t.fn, t.daemon = k, name, fn, daemon
	k.mu.Lock()
	if len(k.live) == 0 {
		k.idle = make(chan struct{})
	}
	if daemon {
		k.daemons++
	}
	t.lidx = len(k.live)
	k.live = append(k.live, t)
	k.stats.Spawns++
	k.readyLocked(t)
	k.mu.Unlock()
}

// Run executes fn as a tracked task and blocks the (untracked) caller until
// it returns. It is the entry point for driving a simulation from a test or
// a main function. Calling it from a task stalls the kernel.
func (k *Virtual) Run(fn func()) {
	// Goroutines entering one kernel side by side (one per tenant) are
	// started together. Yielding here, and once more when the loop starts,
	// lets them all enter before the first task runs, even on one CPU.
	runtime.Gosched()
	done := make(chan struct{})
	k.Go("run", func() {
		defer close(done)
		fn()
	})
	<-done
}

// Drain blocks the (untracked) caller until every tracked task has exited.
func (k *Virtual) Drain() {
	k.mu.Lock()
	idle := k.idle
	k.mu.Unlock()
	<-idle
}

// Tasks returns the number of live tracked tasks.
func (k *Virtual) Tasks() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.live)
}

// TaskNames returns the names of the live tracked tasks, in no particular
// order.
func (k *Virtual) TaskNames() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	names := make([]string, len(k.live))
	for i, t := range k.live {
		names[i] = t.name
	}
	return names
}

// NewWaiter returns a kernel-aware parking primitive.
func (k *Virtual) NewWaiter() *Waiter { return &Waiter{sel: Selector{k: k}} }

// Sleep pauses the calling task for d of virtual time.
func (k *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil || d <= 0 {
		return err
	}
	k.mu.Lock()
	if k.parkLocked(ctx, "sleep", d, nil) {
		return ctx.Err()
	}
	return nil
}

// parkLocked suspends the running task until its deadline (d > 0), a wake
// on s, or cancellation of ctx readies it, and reports whether cancellation
// did. Called with k.mu held; returns with it released.
func (k *Virtual) parkLocked(ctx context.Context, on string, d time.Duration, s *Selector) (cancelled bool) {
	t := k.cur
	if t == nil {
		k.mu.Unlock()
		panic("simtime: " + on + " park outside a kernel task: only tasks spawned with Go, GoDaemon or Run may block on a Virtual runtime")
	}
	t.on, t.sel, t.done = on, s, ctx.Done()
	if s != nil {
		s.owner = t
	}
	k.stats.Parks++
	if d > 0 {
		k.stats.TimedParks++
		t.deadline, t.seq = k.Now()+d, k.seq
		k.seq++
		k.timers.push(t)
	}
	if t.done != nil {
		if _, hooked := k.hooks[t.done]; !hooked {
			// For cancellations the kernel cannot see happen.
			k.hooks[t.done] = context.AfterFunc(ctx, k.pollCancelled)
		}
		k.cancelIfDoneLocked(t) // already cancelled: straight to the ready queue
	}
	t.yield(struct{}{}) // hands k.mu to the loop
	cancelled, t.cancelled = t.cancelled, false
	return cancelled
}

// readyLocked appends t to the ready queue: it runs at the current instant,
// after everything readied before it. A wake from outside starts the loop.
func (k *Virtual) readyLocked(t *task) {
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
	if !k.looping {
		k.looping = true
		k.starts++
		go k.loop()
	}
}

// cancelIfDoneLocked readies t if the context it is parked under has been
// cancelled, and reports whether it did.
func (k *Virtual) cancelIfDoneLocked(t *task) bool {
	select {
	case <-t.done: // never ready when nil
		t.cancelled = true
		if t.sel != nil {
			t.sel.state = selExpired
		}
		k.readyLocked(t)
		return true
	default:
		return false
	}
}

// pollCancelledLocked readies every task parked under a cancelled context,
// in k.live order, and reports whether there was one. A scan: cancellation
// is a teardown event, parks are the hot path.
func (k *Virtual) pollCancelledLocked() (woke bool) {
	for _, t := range k.live {
		woke = k.cancelIfDoneLocked(t) || woke
	}
	return woke
}

func (k *Virtual) pollCancelled() {
	k.mu.Lock()
	k.pollCancelledLocked()
	k.mu.Unlock()
}

// loop resumes ready tasks one at a time until none is left to run. If that
// leaves non-daemon tasks parked with nothing scheduled to wake them, only an
// outside event (an asynchronous cancellation, an untracked goroutine's wake
// or spawn) can restart it: none within stallGrace is a deadlock.
func (k *Virtual) loop() {
	runtime.Gosched() // see Run
	k.mu.Lock()
	returned := false
	defer func() {
		if returned {
			return
		}
		if p := recover(); p != nil {
			panic(p) // a task panicked: crash, as an uncaught goroutine panic does
		}
		// The running task called runtime.Goexit (t.FailNow off the test
		// goroutine): its deferred calls ran, it finished holding k.mu, and
		// its coroutine took this goroutine with it. Carry on in a new one.
		k.finishLocked(k.cur, false)
		k.mu.Unlock()
		go k.loop()
	}()
	n, alone := 0, runtime.GOMAXPROCS(0) == 1
	for t := k.nextLocked(); t != nil; t = k.nextLocked() {
		k.cur = t
		k.mu.Unlock()
		if n++; alone && n%64 == 0 {
			// On one CPU nothing else runs while the loop does: let waiting
			// entrants and wakers in now, not at the 10ms preemption tick.
			runtime.Gosched()
		}
		t.next() // returns with k.mu held: t parked or finished
		if t.fn == nil {
			k.finishLocked(t, true)
		}
	}
	k.looping = false
	if starts := k.starts; len(k.live) > k.daemons {
		time.AfterFunc(stallGrace, func() {
			k.mu.Lock()
			defer k.mu.Unlock()
			if !k.looping && k.starts == starts {
				panic(k.deadlockLocked())
			}
		})
	}
	k.mu.Unlock()
	returned = true
}

const stallGrace = 2 * time.Second

// nextLocked returns the next task to run, advancing virtual time when
// nothing is ready at the current instant; nil when the kernel is idle.
func (k *Virtual) nextLocked() *task {
	k.cur = nil
	for {
		if k.rhead < len(k.ready) {
			t := k.ready[k.rhead]
			k.ready[k.rhead] = nil
			k.rhead++
			return t
		}
		k.ready, k.rhead = k.ready[:0], 0
		if len(k.timers) > 0 {
			// Everything due at the earliest deadline becomes ready, in the
			// order the timers were armed.
			now := k.timers[0].deadline
			k.now.Store(int64(now))
			for len(k.timers) > 0 && k.timers[0].deadline == now {
				t := k.timers[0]
				if t.sel != nil {
					t.sel.state = selWoken
					t.sel.idx = Heartbeat
				}
				k.readyLocked(t)
			}
			continue
		}
		if k.pollCancelledLocked() {
			continue
		}
		return nil
	}
}

// deadlockLocked describes the stuck kernel: each task and what it parked on.
func (k *Virtual) deadlockLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simtime: deadlock at t=%v: %d tasks alive, none runnable, no pending timers", k.Now(), len(k.live))
	for _, t := range k.live {
		fmt.Fprintf(&b, "\n\ttask %q (daemon=%v) parked on %s", t.name, t.daemon, t.on)
	}
	return b.String()
}

func (k *Virtual) finishLocked(t *task, reuse bool) {
	last := len(k.live) - 1
	moved := k.live[last]
	k.live[t.lidx], moved.lidx = moved, t.lidx
	k.live[last] = nil
	k.live = k.live[:last]
	if t.daemon {
		k.daemons--
	}
	if last == 0 {
		close(k.idle)
		// So that a long-lived context does not pin an idle kernel.
		for done, stop := range k.hooks {
			stop()
			delete(k.hooks, done)
		}
	}
	t.k, t.name = nil, ""
	if reuse {
		putTask(t)
	}
}

// task is a tracked task and the coroutine that carries it. The coroutine
// outlives the task: when fn returns it yields to the loop once more and
// stays parked there, on the free list, until getTask hands it a new fn.
type task struct {
	next  func() (struct{}, bool) // loop side: switch to the coroutine
	stop  func()
	yield func(struct{}) bool // task side: switch back to the loop

	k      *Virtual
	name   string
	fn     func() // nil once the task has finished
	daemon bool
	lidx   int // index in k.live

	// Park state, guarded by k.mu.
	on        string          // "sleep", "selector" or "waiter" while parked
	sel       *Selector       // the selector parked on, if any
	done      <-chan struct{} // Done of the context parked under, if any
	deadline  time.Duration   // valid while hidx >= 0
	seq       uint64
	hidx      int // index in k.timers, -1 when no timer is armed
	cancelled bool
}

func (t *task) coroutine(yield func(struct{}) bool) {
	t.yield = yield
	for {
		t.run()
		if !yield(struct{}{}) { // hands k.mu to the loop
			return
		}
	}
}

// run calls fn and, however it ends, leaves the task marked finished with
// k.mu held — the state a park hands to the loop.
func (t *task) run() {
	defer func() {
		if p := recover(); p != nil {
			// The loop re-panics with this value; keep the stack that the
			// coroutine switch would lose.
			panic(fmt.Sprintf("simtime: task %q panicked: %v\n\n%s", t.name, p, debug.Stack()))
		}
		t.k.mu.Lock()
		t.fn = nil
	}()
	t.fn()
}

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

// timerHeap is a min-heap of parked tasks by (deadline, seq). Each task
// knows its index, so a wake or a cancellation removes its timer at once
// and an abandoned deadline never reaches the top.
type timerHeap []*task

func (h timerHeap) less(i, j int) bool {
	return h[i].deadline < h[j].deadline || h[i].deadline == h[j].deadline && h[i].seq < h[j].seq
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx, h[j].hidx = i, j
}

func (h *timerHeap) push(t *task) {
	t.hidx = len(*h)
	*h = append(*h, t)
	h.up(t.hidx)
}

func (h *timerHeap) remove(t *task) {
	i, last := t.hidx, len(*h)-1
	h.swap(i, last)
	(*h)[last] = nil
	*h = (*h)[:last]
	t.hidx = -1
	if i < last && !h.down(i) {
		h.up(i)
	}
}

func (h timerHeap) up(i int) {
	for parent := (i - 1) / 2; i > 0 && h.less(i, parent); parent = (i - 1) / 2 {
		h.swap(i, parent)
		i = parent
	}
}

func (h timerHeap) down(i int) (moved bool) {
	for {
		child := 2*i + 1
		if child+1 < len(h) && h.less(child+1, child) {
			child++
		}
		if child >= len(h) || !h.less(child, i) {
			return moved
		}
		h.swap(i, child)
		i, moved = child, true
	}
}
