package simtime

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"
)

// parked records how and when a task spawned by parkOn resumed.
type parked struct {
	sel *Selector
	idx int
	err error
	at  time.Duration
	n   int // times resumed
}

// parkOn spawns a task that parks on its own selector, for deadline (0:
// untimed) under ctx.
func parkOn(k *Virtual, ctx context.Context, wg *WaitGroup, deadline time.Duration) *parked {
	p := &parked{sel: NewSelector(k)}
	wg.Go("parked", func() {
		p.sel.Reset()
		p.idx, p.err = p.sel.Wait(ctx, deadline)
		p.at = k.Now()
		p.n++
	})
	return p
}

// TestRetimeMovesAParkedDeadline: an earlier and a later instant both take
// effect, an untimed park acquires a timer, an instant in the past is the
// next nanosecond — and the task sleeps through all of it: one park each,
// no wake but the timer's, nothing left on the heap, and a clock that ends
// where the last moved deadline put it, not at an abandoned hour.
func TestRetimeMovesAParkedDeadline(t *testing.T) {
	ctx := context.Background()
	k := NewVirtual()
	k.Run(func() {
		wg := NewWaitGroup(k)
		earlier := parkOn(k, ctx, wg, time.Hour)
		later := parkOn(k, ctx, wg, 10*time.Millisecond)
		untimed := parkOn(k, ctx, wg, 0)
		past := parkOn(k, ctx, wg, time.Hour)
		_ = k.Sleep(ctx, time.Millisecond)
		for _, mv := range []struct {
			p  *parked
			at time.Duration
		}{{earlier, 5 * time.Millisecond}, {later, 30 * time.Millisecond}, {untimed, 7 * time.Millisecond}, {past, 0}} {
			if !mv.p.sel.Retime(mv.at) {
				t.Errorf("Retime(%v) on a parked selector = false", mv.at)
			}
		}
		_ = k.Sleep(ctx, 19*time.Millisecond) // past later's abandoned 10ms
		if later.n != 0 {
			t.Errorf("task re-timed from 10ms to 30ms resumed by %v", k.Now())
		}
		_ = wg.Wait(ctx)
		for name, c := range map[string]struct {
			p    *parked
			want time.Duration
		}{
			"earlier": {earlier, 5 * time.Millisecond},
			"later":   {later, 30 * time.Millisecond},
			"untimed": {untimed, 7 * time.Millisecond},
			"past":    {past, time.Millisecond + 1},
		} {
			if c.p.n != 1 || c.p.idx != Heartbeat || c.p.err != nil || c.p.at != c.want {
				t.Errorf("%s: resumed %d times with (%d, %v) at %v, want once with Heartbeat at %v",
					name, c.p.n, c.p.idx, c.p.err, c.p.at, c.want)
			}
		}
	})
	if now, timers := k.Now(), len(k.timers); now != 30*time.Millisecond || timers != 0 {
		t.Errorf("kernel ended at %v with %d timers, want 30ms and none", now, timers)
	}
	// run: 2 sleeps + the join; the four parked tasks: one park each.
	if st := k.Stats(); st.Parks != 7 || st.Wakes != 7 || st.Retimes != 4 {
		t.Errorf("Stats = %+v, want 7 parks, 7 wakes, 4 retimes", st)
	}
}

// TestRetimeRefusedChangesNothing: false means nobody is parked on the
// selector with the cycle unclaimed — never armed, between cycles, claimed
// before the park, or claimed by a wake whose owner has yet to run.
func TestRetimeRefusedChangesNothing(t *testing.T) {
	ctx := context.Background()
	k := NewVirtual()
	k.Run(func() {
		refused := func(what string, s *Selector) {
			t.Helper()
			before, timers := k.stats, len(k.timers)
			if s.Retime(k.Now() + time.Millisecond) {
				t.Errorf("Retime on %s selector = true", what)
			}
			if after := k.stats; after != before || len(k.timers) != timers {
				t.Errorf("refused Retime on %s selector changed the kernel: %+v -> %+v", what, before, after)
			}
		}
		own := NewSelector(k)
		refused("an idle", own)
		own.Reset()
		refused("an unparked", own) // its owner is running
		own.TryWake(3)
		refused("a claimed, unparked", own)
		if idx, err := own.Wait(ctx, time.Hour); idx != 3 || err != nil {
			t.Errorf("Wait after a refused Retime = %d, %v; want the wake's 3", idx, err)
		}

		wg := NewWaitGroup(k)
		p := parkOn(k, ctx, wg, time.Hour)
		_ = k.Sleep(ctx, time.Millisecond)
		p.sel.TryWake(5) // readied; runs when this task parks
		refused("an already-claimed", p.sel)
		_ = wg.Wait(ctx)
		if p.idx != 5 || p.at != time.Millisecond {
			t.Errorf("claimed task resumed with %d at %v, want 5 at 1ms", p.idx, p.at)
		}
	})
	if now := k.Now(); now != time.Millisecond {
		t.Errorf("kernel ended at %v, want 1ms: a refused Retime armed something", now)
	}
}

// retimeOrderProgram parks eight tasks with different deadlines, re-times
// them all to one instant in a scrambled order, and returns the order they
// resumed in.
func retimeOrderProgram() (order, want []int) {
	ctx := context.Background()
	k := NewVirtual()
	k.Run(func() {
		wg := NewWaitGroup(k)
		sels := make([]*Selector, 8)
		for i := range sels {
			s := NewSelector(k)
			sels[i] = s
			wg.Go("parked", func() {
				s.Reset()
				_, _ = s.Wait(ctx, time.Duration(i%3)*time.Hour) // 0: untimed
				order = append(order, i)
			})
		}
		_ = k.Sleep(ctx, time.Millisecond)
		want = []int{5, 2, 7, 0, 3, 6, 1, 4}
		for _, i := range want {
			sels[i].Retime(time.Second)
		}
		_ = wg.Wait(ctx)
	})
	return order, want
}

// TestRetimedToOneInstantResumeInRetimeOrder: a Retime arms afresh, so
// among timers due together the kernel's tie-break is the order of the
// Retime calls, on every run and any number of CPUs.
func TestRetimedToOneInstantResumeInRetimeOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 50; run++ {
			if got, want := retimeOrderProgram(); !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d run %d: resumed in order %v, want %v", procs, run, got, want)
			}
		}
	}
}

// TestWakeOrCancelAfterRetime: the moved timer is an ordinary one — a wake
// or a cancellation that gets there first readies the task once and takes
// the timer with it.
func TestWakeOrCancelAfterRetime(t *testing.T) {
	ctx := context.Background()
	k := NewVirtual()
	k.Run(func() {
		wg := NewWaitGroup(k)
		var scope CancelScope
		cctx, cancel := scope.Begin(k, ctx), scope.Cancel
		woken := parkOn(k, ctx, wg, 0)
		cancelled := parkOn(k, cctx, wg, time.Hour)
		_ = k.Sleep(ctx, time.Millisecond)
		woken.sel.Retime(time.Minute)
		cancelled.sel.Retime(time.Minute)
		_ = k.Sleep(ctx, time.Millisecond)
		if !woken.sel.TryWake(4) || woken.sel.TryWake(4) {
			t.Error("TryWake after Retime: want one claim, then a refusal")
		}
		cancel()
		if n := len(k.timers); n != 0 {
			t.Errorf("%d timers left after the wake and the cancellation", n)
		}
		_ = wg.Wait(ctx)
		if woken.n != 1 || woken.idx != 4 || woken.err != nil || woken.at != 2*time.Millisecond {
			t.Errorf("woken: resumed %d times with (%d, %v) at %v", woken.n, woken.idx, woken.err, woken.at)
		}
		if cancelled.n != 1 || !errors.Is(cancelled.err, context.Canceled) || cancelled.at != 2*time.Millisecond {
			t.Errorf("cancelled: resumed %d times with %v at %v", cancelled.n, cancelled.err, cancelled.at)
		}
	})
	if now := k.Now(); now != 2*time.Millisecond {
		t.Errorf("kernel ended at %v, want 2ms: an abandoned deadline moved the clock", now)
	}
}

func TestRetimeAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	k := NewVirtual()
	k.Run(func() {
		wg := NewWaitGroup(k)
		timed, untimed := parkOn(k, ctx, wg, time.Hour), parkOn(k, ctx, wg, 0)
		_ = k.Sleep(ctx, time.Millisecond)
		at := time.Minute
		if got := testing.AllocsPerRun(200, func() {
			at += time.Second // one deadline moves later, the other earlier
			timed.sel.Retime(at)
			untimed.sel.Retime(2*time.Hour - at)
		}); got != 0 {
			t.Errorf("Retime: %v allocs per run, want 0", got)
		}
		timed.sel.TryWake(0)
		untimed.sel.TryWake(0)
		_ = wg.Wait(ctx)
	})
}
