package simtime

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// sameInstantProgram runs a program whose wakes pile up on shared instants
// through every primitive — Sleep deadlines, selector heartbeats and
// TryWakes, Gate pulses, WaitGroup and Barrier releases — and returns the
// order in which its tasks observed them. The log needs no lock: one task
// runs at a time.
func sameInstantProgram() []string {
	const n = 64
	ctx := context.Background()
	k := NewVirtual()
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
	}
	k.Run(func() {
		all := NewWaitGroup(k)
		gate := new(Gate)
		src := &fakeSource{}
		barrier := NewBarrierFunc(k, n, func(gen uint64) { note("barrier round %d", gen) })
		inner := NewWaitGroup(k)
		for i := 0; i < n; i++ {
			all.Go("sleeper", func() {
				for r := 0; r < 3; r++ {
					_ = k.Sleep(ctx, time.Millisecond) // n tasks, one deadline
					note("sleeper %d round %d", i, r)
				}
			})
			all.Go("selector", func() {
				sel := NewSelector(k)
				// Even ones ride the 2ms heartbeat, odd ones the source
				// fired at 2ms: both land on the same instant.
				hb := time.Duration(0)
				if i%2 == 0 {
					hb = 2 * time.Millisecond
				}
				idx, _ := sel.Select(ctx, hb, gate, src)
				note("selector %d woke on %d", i, idx)
			})
			inner.Go("member", func() {
				_ = k.Sleep(ctx, time.Duration(1+i%3)*time.Millisecond)
				gen, err := barrier.Wait(ctx)
				note("member %d past barrier %d %v", i, gen, err)
			})
			all.Go("joiner", func() {
				_ = inner.Wait(ctx)
				note("joiner %d", i)
			})
		}
		all.Go("waker", func() {
			_ = k.Sleep(ctx, 2*time.Millisecond)
			note("waker")
			src.fire() // claims the first selector armed on it
			gate.Pulse()
		})
		_ = all.Wait(ctx)
	})
	k.Drain()
	return log
}

// TestSameInstantOrderIsAFunctionOfTheProgram is the kernel's determinism
// claim: hundreds of wakes that share virtual instants come out in the same
// order on every run, whatever the number of CPUs.
func TestSameInstantOrderIsAFunctionOfTheProgram(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := sameInstantProgram()
	if len(want) < 300 {
		t.Fatalf("program logged only %d events", len(want))
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 50; run++ {
			if got := sameInstantProgram(); !slices.Equal(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("GOMAXPROCS=%d run %d: event %d is %q, want %q", procs, run, i, got[min(i, len(got)-1)], want[i])
					}
				}
				t.Fatalf("GOMAXPROCS=%d run %d: %d events, want %d", procs, run, len(got), len(want))
			}
		}
	}
}

// TestCancellationIsAKernelEvent: cancelling a CancelScope readies
// every task parked under the context at the canceller's instant, each sees
// ctx.Err(), a wake that got in first is delivered, not lost, and the
// abandoned one-hour deadlines never move the clock.
func TestCancellationIsAKernelEvent(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		var scope CancelScope
		ctx, cancel := scope.Begin(k, context.Background()), scope.Cancel
		wg := NewWaitGroup(k)
		results := map[string]error{}
		for i := 0; i < 8; i++ {
			wg.Go("sleeper", func() { results[fmt.Sprint("sleep", i)] = k.Sleep(ctx, time.Hour) })
			wg.Go("selector", func() {
				_, err := NewSelector(k).Select(ctx, time.Hour, &fakeSource{})
				results[fmt.Sprint("select", i)] = err
			})
			wg.Go("waiter", func() { results[fmt.Sprint("wait", i)] = waitAlone(k, ctx) })
		}
		raced := NewSelector(k)
		wg.Go("raced", func() {
			raced.Reset()
			idx, err := raced.Wait(ctx, time.Hour)
			if idx != 7 || err != nil {
				t.Errorf("raced Wait = %d, %v; want the wake (7, nil), not the cancellation", idx, err)
			}
		})
		_ = k.Sleep(context.Background(), time.Second)
		if !raced.TryWake(7) {
			t.Error("TryWake before cancel refused")
		}
		cancel()
		if raced.TryWake(8) {
			t.Error("second TryWake claimed a woken selector")
		}
		_ = wg.Wait(context.Background())
		if len(results) != 24 {
			t.Errorf("%d tasks reported, want 24", len(results))
		}
		for name, err := range results {
			if err != context.Canceled {
				t.Errorf("%s returned %v, want context.Canceled", name, err)
			}
		}
		if now := k.Now(); now != time.Second {
			t.Errorf("clock at %v after cancellation, want 1s: an abandoned deadline moved it", now)
		}
		if err := k.Sleep(ctx, time.Hour); err != context.Canceled || k.Now() != time.Second {
			t.Errorf("Sleep under a cancelled context = %v at %v", err, k.Now())
		}
	})
}

// TestForeignCancellationLandsAsynchronously: a plain context.WithCancel is
// invisible to the kernel until its AfterFunc hook runs; with every task
// parked and no timer pending the kernel must wait for it, not report a
// deadlock. The canceller here is an untracked goroutine.
func TestForeignCancellationLandsAsynchronously(t *testing.T) {
	k := NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan struct{}, 1)
	go func() {
		<-parked
		time.Sleep(5 * time.Millisecond) // let the kernel go quiet first
		cancel()
	}()
	k.Run(func() {
		parked <- struct{}{}
		if err := waitAlone(k, ctx); err != context.Canceled {
			t.Errorf("Wait = %v, want context.Canceled", err)
		}
	})
}

// TestUntrackedGoroutinesDriveAnIdleKernel: with every task a parked daemon
// the loop is gone; a Post from a goroutine that is no task restarts it, and
// the posted function wakes and spawns with the kernel in hand.
func TestUntrackedGoroutinesDriveAnIdleKernel(t *testing.T) {
	k := NewVirtual()
	sel := NewSelector(k)
	got := make(chan int, 4) // buffered: tasks never block on it
	k.Post(func() {
		k.GoDaemon("server", func() {
			for {
				sel.Reset()
				got <- -1 // about to park
				idx, _ := sel.Wait(context.Background(), 0)
				got <- idx
				if idx == 0 {
					return
				}
			}
		})
	})
	for _, idx := range []int{5, 6} {
		<-got
		for k.loops() { // until the daemon has parked and the loop has gone
			runtime.Gosched()
		}
		k.Post(func() {
			if !sel.TryWake(idx) {
				t.Errorf("TryWake(%d) from a posted function refused", idx)
			}
		})
		if v := <-got; v != idx {
			t.Fatalf("daemon woke with %d, want %d", v, idx)
		}
	}
	<-got
	ran := make(chan time.Duration, 1)
	k.Post(func() {
		k.Go("late", func() {
			_ = k.Sleep(context.Background(), time.Minute)
			ran <- k.Now()
		})
	})
	if at := <-ran; at != time.Minute {
		t.Fatalf("task spawned from outside finished at %v, want 1m", at)
	}
	for k.Tasks() != 1 { // the daemon alone, once "late" has been retired
		runtime.Gosched()
	}
	k.Post(func() { sel.TryWake(0) })
	k.Drain()
}

// TestDoRunsOnTheLoop: Do has one behaviour, whatever the kernel is doing. Its
// function runs on the loop between two tasks — an idle kernel starts one for
// it, spawns nothing and does not move the clock — and may enter the door
// again with Post, which an idle kernel must not deadlock on.
func TestDoRunsOnTheLoop(t *testing.T) {
	k := NewVirtual()
	sel := NewSelector(k)
	woke := make(chan int, 1)
	onLoop := func() {
		if !k.door.looping || k.cur != nil {
			t.Error("Do did not run on the loop between two tasks")
		}
	}
	k.Do(func() {
		onLoop()
		k.GoDaemon("sleeper", func() {
			sel.Reset()
			idx, _ := sel.Wait(context.Background(), 0)
			woke <- idx
		})
	})
	for k.loops() {
		runtime.Gosched()
	}
	before := k.Stats()
	posted := make(chan struct{})
	k.Do(func() {
		onLoop()
		k.Post(func() { close(posted) }) // re-enters the door from a posted function
	})
	<-posted
	if after := k.Stats(); after != before || k.Now() != 0 {
		t.Errorf("a Do on an idle kernel moved it: %+v -> %+v at %v", before, after, k.Now())
	}
	k.Do(func() { sel.TryWake(7) })
	if idx := <-woke; idx != 7 {
		t.Fatalf("sleeper woke with %d, want 7", idx)
	}
	k.Drain()
	k.Run(func() { // with tasks running, Do is served between two of them
		done := make(chan struct{})
		go func() {
			k.Do(onLoop)
			close(done)
		}()
		for {
			select {
			case <-done:
				return
			default:
				_ = k.Sleep(context.Background(), time.Microsecond)
			}
		}
	})
}

// loops reports whether a loop goroutine exists.
func (k *Virtual) loops() bool {
	k.door.mu.Lock()
	defer k.door.mu.Unlock()
	return k.door.looping
}

// TestRunSideBySideWithStatsAndCancellation is the door under the race
// detector: sixteen goroutines enter through Run at once, each parking under
// a plain context.WithCancel context, while one goroutine polls Stats,
// Tasks and TaskNames and another cancels. Every Run must come back
// cancelled, and the counters must add up.
func TestRunSideBySideWithStatsAndCancellation(t *testing.T) {
	const entrants = 16
	k := NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	var parked, done sync.WaitGroup
	parked.Add(entrants)
	done.Add(entrants)
	errs := make([]error, entrants)
	for i := range errs {
		go func() {
			defer done.Done()
			k.Run(func() {
				_ = k.Sleep(context.Background(), time.Duration(i)*time.Millisecond)
				parked.Done()
				errs[i] = waitAlone(k, ctx)
			})
		}()
	}
	stop := make(chan struct{})
	polled := make(chan int)
	// The canceller waits for a poll that began after every entrant parked,
	// so a poll must get through the door while sixteen tasks sit parked.
	allParked, parkedPoll := make(chan struct{}), make(chan struct{})
	go func() {
		polls, signalled := 0, false
		for {
			afterPark := false
			select {
			case <-allParked:
				afterPark = !signalled
			default:
			}
			select {
			case <-stop:
				polled <- polls
				return
			default:
			}
			if st, n, names := k.Stats(), k.Tasks(), k.TaskNames(); st.Spawns > entrants || n > entrants || len(names) > entrants {
				t.Errorf("poll saw %+v, %d tasks, names %v", st, n, names)
			}
			polls++
			if afterPark {
				close(parkedPoll)
				signalled = true
			}
			runtime.Gosched()
		}
	}()
	go func() {
		parked.Wait()
		close(allParked)
		<-parkedPoll
		cancel()
	}()
	done.Wait()
	close(stop)
	if polls := <-polled; polls == 0 {
		t.Error("the poller never got through the door")
	}
	k.Drain()
	for i, err := range errs {
		if err != context.Canceled {
			t.Errorf("entrant %d: Wait = %v, want context.Canceled", i, err)
		}
	}
	if st := k.Stats(); st.Spawns != entrants || st.Wakes != st.Parks || k.Tasks() != 0 {
		t.Errorf("Stats = %+v with %d tasks left, want %d spawns, as many wakes as parks, no task", st, k.Tasks(), entrants)
	}
}

// TestPostedFunctionsRunInPostOrder: what one goroutine posts runs in the
// order it posted, on a running kernel and across loop restarts alike, and a
// task posting to its own kernel is served once it parks.
func TestPostedFunctionsRunInPostOrder(t *testing.T) {
	const n = 1000
	k := NewVirtual()
	var got []int // the loop's alone until Drain
	stop := false // and so is this: set by a posted function, read by the task
	k.Post(func() {
		k.Go("busy", func() { // keeps the loop turning while posts arrive
			for !stop {
				_ = k.Sleep(context.Background(), time.Microsecond)
			}
		})
	})
	for i := 0; i < n; i++ {
		k.Post(func() { got = append(got, i) })
		if i%100 == 99 {
			runtime.Gosched()
		}
	}
	k.Post(func() { stop = true })
	k.Drain()
	for i := 0; i < n; i++ { // an idle kernel: every Post starts a loop
		k.Post(func() { got = append(got, n+i) })
	}
	k.Run(func() {
		k.Post(func() { got = append(got, 2*n) })
		_ = k.Sleep(context.Background(), time.Second)
	})
	k.Drain()
	if len(got) != 2*n+1 {
		t.Fatalf("%d posted functions ran, want %d", len(got), 2*n+1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("posted function %d ran in place %d", v, i)
		}
	}
}

// TestSteadyStateAllocations pins the kernel's hot paths: a Sleep and a
// selector cycle allocate nothing, and a spawn-and-join costs the caller's one
// closure — the coroutine that carries the task comes from the free list, the
// join's selector from the kernel's spares, and WaitGroup.Go wraps nothing.
func TestSteadyStateAllocations(t *testing.T) {
	ctx := context.Background()
	k := NewVirtual()
	k.Run(func() {
		sel := NewSelector(k)
		peer := NewSelector(k)
		k.Go("peer", func() { // wakes sel whenever it is woken itself
			for {
				if idx, _ := peer.Wait(ctx, 0); idx == 0 {
					return
				}
				peer.Reset() // before the wake that lets the next TryWake come
				sel.TryWake(1)
			}
		})
		wg := NewWaitGroup(k)
		for name, tc := range map[string]struct {
			max float64
			fn  func()
		}{
			"Sleep":         {0, func() { _ = k.Sleep(ctx, time.Millisecond) }},
			"selector wake": {0, func() { sel.Reset(); peer.TryWake(1); _, _ = sel.Wait(ctx, 0) }},
			"selector deadline": {0, func() {
				sel.Reset()
				_, _ = sel.Wait(ctx, time.Millisecond)
			}},
			"spawn and join": {1, func() {
				wg.Go("child", func() { _ = k.Sleep(ctx, time.Millisecond) })
				_ = wg.Wait(ctx)
			}},
		} {
			if got := testing.AllocsPerRun(200, tc.fn); got > tc.max {
				t.Errorf("%s: %v allocs per run, want at most %v", name, got, tc.max)
			}
		}
		peer.TryWake(0)
	})
	k.Drain()
}

// TestDoorEntryAllocations pins what a waited entry costs: Run, RunWith and
// Do wrap nothing, take their completion channel from a stock, and start the
// loop goroutine on the loop bound once per kernel, so entering an idle
// kernel allocates nothing. Every public call of the facade is one such
// entry. GC cycles in between do not change that: the stock is no sync.Pool.
// Nor does a task left parked: the retire after each entry re-arms the
// kernel's one deadlock timer, and the next entry stops it, so no timer
// fires. Each firing is a goroutine: a burst of them, from kernels earlier
// tests idled with tasks parked, would allocate goroutines in this window.
func TestDoorEntryAllocations(t *testing.T) {
	k := NewVirtual()
	fn := func() {}
	call := func(any) {}
	parked := NewVirtual()
	sel := NewSelector(parked)
	parked.Do(func() { parked.Go("parked", func() { _, _ = sel.Wait(context.Background(), 0) }) })
	for name, enter := range map[string]func(){
		"Do":              func() { k.Do(fn) },
		"Run":             func() { k.Run(fn) },
		"RunWith":         func() { k.RunWith(call, k) },
		"Run+GC":          func() { runtime.GC(); k.Run(fn) },
		"Do, task parked": func() { parked.Do(fn) },
	} {
		if got := testing.AllocsPerRun(200, enter); got > 0 {
			t.Errorf("%s: %v allocs per entry, want none", name, got)
		}
	}
	for parked.loops() {
		runtime.Gosched()
	}
	parked.door.mu.Lock()
	if parked.door.idle.IsZero() {
		t.Error("a retire that left a task parked did not arm the deadlock check")
	}
	parked.door.mu.Unlock()
	parked.Do(func() { sel.TryWake(0) })
	parked.Drain()
}

// TestRecycledKernelQueues: a kernel recycled at its run's teardown hands
// its ready queue, timer heap and task list to the next NewVirtual, which
// runs the same shape without growing them; the recycled kernel stays
// usable. Its teardown list runs once, in reverse order, and is handed on
// like the queues.
func TestRecycledKernelQueues(t *testing.T) {
	ctx := context.Background()
	run := func(k *Virtual) {
		k.Run(func() {
			wg := NewWaitGroup(k)
			for i := range 64 {
				wg.Go("sleeper", func() { _ = k.Sleep(ctx, time.Duration(1+i%3)*time.Millisecond) })
			}
			_ = wg.Wait(ctx)
		})
		k.Drain() // the loop has retired: its queues are the test's to read
	}
	first := NewVirtual()
	run(first)
	grown := [3]int{cap(first.ready), cap(first.timers), cap(first.live)}
	first.Recycle()
	if first.ready != nil || first.timers != nil || first.live != nil {
		t.Fatal("a recycled kernel kept its queues")
	}
	next := NewVirtual()
	if got := [3]int{cap(next.ready), cap(next.timers), cap(next.live)}; got != grown {
		t.Fatalf("a kernel built after a recycled one starts with queues of %v, want %v", got, grown)
	}
	run(next)
	if got := [3]int{cap(next.ready), cap(next.timers), cap(next.live)}; got != grown {
		t.Errorf("the same run grew the queues to %v, from %v", got, grown)
	}
	run(first) // still usable
	next.Recycle()
	first.Recycle()

	// The teardown list goes with the queues: what registered with a kernel
	// is recycled once, in reverse order of registration, and a warm kernel
	// registers on the list a recycled one left, allocating nothing.
	for {
		if _, ok := retired.Get(); !ok {
			break // start from an empty stock
		}
	}
	var order []int
	owned := make([]*orderRecycler, 4)
	for i := range owned {
		owned[i] = &orderRecycler{i: i, order: &order}
		first.Own(owned[i])
	}
	first.Recycle()
	first.Recycle() // recycles nothing more
	if want := []int{3, 2, 1, 0}; !slices.Equal(order, want) {
		t.Errorf("recycled %v, want %v", order, want)
	}
	warm := NewVirtual()
	if allocs := testing.AllocsPerRun(10, func() {
		warm.owned = warm.owned[:0]
		for _, r := range owned {
			warm.Own(r)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs to register %d recyclers on a warm kernel, want 0", allocs, len(owned))
	}
	warm.Recycle()
	if want := []int{3, 2, 1, 0, 3, 2, 1, 0}; !slices.Equal(order, want) {
		t.Errorf("recycled %v, want %v", order, want)
	}
}

// orderRecycler appends i to order when it is recycled.
type orderRecycler struct {
	i     int
	order *[]int
}

func (r *orderRecycler) Recycle() { *r.order = append(*r.order, r.i) }

// TestParkOutsideATaskPanics: the goroutine kernel let an untracked
// goroutine park and silently corrupted its runnable count.
func TestParkOutsideATaskPanics(t *testing.T) {
	k := NewVirtual()
	for name, park := range map[string]func(){
		"Sleep":    func() { _ = k.Sleep(context.Background(), time.Second) },
		"Selector": func() { _, _ = NewSelector(k).Wait(context.Background(), 0) },
		"WaitList": func() { _ = waitAlone(k, context.Background()) },
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "outside a kernel task") {
					t.Errorf("%s from the test goroutine: recovered %v, want the park panic", name, p)
				}
			}()
			park()
		}()
	}
}

// TestDeadlockReportNamesParkedTasks checks the deadlock panic, raised by the
// stall timer's callback (called here directly): none while the kernel has
// idled for less than stallGrace, then a text that lists each live task with
// what it is parked on.
func TestDeadlockReportNamesParkedTasks(t *testing.T) {
	k := NewVirtual()
	sel, w := NewSelector(k), new(WaitList)
	w.Init(k)
	parked := make(chan struct{}, 2)
	k.Post(func() {
		k.Go("stuck-consumer", func() {
			sel.Reset()
			parked <- struct{}{}
			_, _ = sel.Wait(context.Background(), 0)
		})
		k.GoDaemon("stuck-server", func() {
			parked <- struct{}{}
			_ = w.Wait(context.Background())
		})
	})
	<-parked
	<-parked
	stalled := func() (p any) {
		defer func() { p = recover() }()
		k.stalled()
		return nil
	}
	for k.loops() { // until the loop has parked both and gone
		runtime.Gosched()
	}
	if p := stalled(); p != nil {
		t.Fatalf("a kernel idle for less than stallGrace reported a deadlock: %v", p)
	}
	k.door.mu.Lock()
	k.door.idle = k.door.idle.Add(-stallGrace) // as the timer finds it
	k.door.mu.Unlock()
	report, _ := stalled().(string)
	for _, want := range []string{
		"2 tasks alive, none runnable, no pending timers",
		`task "stuck-consumer" (daemon=false) parked on selector`,
		`task "stuck-server" (daemon=true) parked on waiter`,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("deadlock report lacks %q:\n%s", want, report)
		}
	}
	k.Post(func() {
		sel.TryWake(0)
		w.WakeOne()
	})
	k.Drain()
}

// TestGoexitEndsOnlyItsTask: runtime.Goexit in a task (what t.FailNow does
// off the test goroutine) runs the task's deferred calls and retires it; the
// kernel carries on with the others, as it did when tasks were goroutines.
func TestGoexitEndsOnlyItsTask(t *testing.T) {
	k := NewVirtual()
	var order []string
	k.Run(func() {
		wg := NewWaitGroup(k)
		wg.Go("quitter", func() {
			defer func() { order = append(order, "quitter's defer") }()
			_ = k.Sleep(context.Background(), time.Second)
			runtime.Goexit()
		})
		wg.Go("survivor", func() {
			_ = k.Sleep(context.Background(), 2*time.Second)
			order = append(order, "survivor")
		})
		_ = wg.Wait(context.Background()) // quitter's wg.Done is deferred too
	})
	k.Drain()
	if want := []string{"quitter's defer", "survivor"}; !slices.Equal(order, want) || k.Now() != 2*time.Second {
		t.Fatalf("order = %v at %v, want %v at 2s", order, k.Now(), want)
	}
}

// TestWaitGroupGoPanicCallsDone: a WaitGroup.Go task that panics is Done
// before its panic leaves the task for the loop to re-raise, as it was when
// Go wrapped fn in a closure that deferred Done. The task is run here, on the
// test goroutine, because the loop's re-panic would end the process.
func TestWaitGroupGoPanicCallsDone(t *testing.T) {
	k := NewVirtual()
	wg := NewWaitGroup(k)
	wg.Go("boom", func() { panic("boom") })
	tk := k.ready[k.rhead]
	defer tk.stop()
	func() {
		defer func() {
			p := recover()
			if !strings.Contains(fmt.Sprint(p), `task "boom" panicked: boom`) {
				t.Errorf("recovered %v, want the task's panic", p)
			}
			if wg.n != 0 {
				t.Errorf("counter %d when the panic left the task, want 0", wg.n)
			}
		}()
		tk.run()
	}()
	if tk.wg != nil {
		t.Error("the task still holds its group")
	}
}

// TestKernelStatsCountParksAndWakes: the kernel's own counters, on a program
// whose round trips can be counted by hand.
func TestKernelStatsCountParksAndWakes(t *testing.T) {
	ctx := context.Background()
	k := NewVirtual()
	k.Run(func() { // spawn 1
		sel := NewSelector(k)
		k.Go("waker", func() { // spawn 2
			_ = k.Sleep(ctx, time.Millisecond) // timed park, woken by its own timer
			sel.TryWake(0)
		})
		if len(k.live) != 2 || k.live[0].name != "run" || k.live[1].name != "waker" {
			t.Errorf("%d live tasks, want run and waker", len(k.live))
		}
		sel.Reset()
		_, _ = sel.Wait(ctx, 0) // untimed park, TryWake
		_ = k.Sleep(ctx, 0)     // no park
		// A wake that claims the cycle before its owner waits: no park, and
		// no wake counted either.
		sel.Reset()
		sel.TryWake(0)
		_, _ = sel.Wait(ctx, 0)
		var scope CancelScope
		cctx := scope.Begin(k, ctx)
		k.Go("canceller", scope.Cancel) // spawn 3
		_ = k.Sleep(cctx, time.Hour)    // timed park, ended by the cancellation
	})
	want := KernelStats{Spawns: 3, Parks: 3, TimedParks: 2, SelfWakes: 1, Wakes: 3, Switches: 5}
	if got := k.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}
