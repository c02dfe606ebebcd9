package simtime

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// rounds is a Stepper that takes n wakes, parking with deadline(r) before
// round r, and logs each: the body of a Wait loop, as a step.
type rounds struct {
	k        *Virtual
	sel      *Selector
	name     string
	r, n     int
	deadline func(r int) time.Duration
	log      *[]string
}

func (w *rounds) Step() (time.Duration, bool) {
	*w.log = append(*w.log, fmt.Sprintf("%v %s round %d", w.k.Now(), w.name, w.r))
	if w.r++; w.r == w.n {
		return 0, false
	}
	w.sel.Reset()
	return w.deadline(w.r), true
}

// wait runs w to its end as a Wait loop, or with stepped as one WaitStep,
// and returns what ended it.
func (w *rounds) wait(ctx context.Context, stepped bool) error {
	w.sel.Reset()
	if stepped {
		return w.sel.WaitStep(ctx, w.deadline(0), w)
	}
	for d := w.deadline(0); ; {
		if _, err := w.sel.Wait(ctx, d); err != nil {
			return err
		}
		var wait bool
		if d, wait = w.Step(); !wait {
			return nil
		}
	}
}

// stepProgram runs four tasks that each wait for their rounds, ended by
// their own deadlines, by a waker's TryWakes (some refused: a timer claimed
// the cycle at the same instant) and, for the last task, by a cancellation
// in the middle of its rounds; then one task whose every round ends by its
// own timer while nothing else is pending. It runs them as Wait loops or
// with WaitStep, and returns the log and the kernel's counts.
func stepProgram(stepped bool) ([]string, KernelStats) {
	const tasks = 4
	bg := context.Background()
	k := NewVirtual()
	var log []string
	k.Run(func() {
		var scope CancelScope
		cancellable := scope.Begin(k, bg)
		wg := NewWaitGroup(k)
		sels := make([]*Selector, tasks)
		for i := range tasks {
			w := &rounds{k: k, sel: NewSelector(k), name: fmt.Sprint("task ", i), n: 6, log: &log,
				deadline: func(r int) time.Duration { return time.Duration(1+(i+r)%3) * time.Millisecond }}
			ctx := bg
			if i == tasks-1 {
				ctx, w.n = cancellable, 1000
			}
			sels[i] = w.sel
			wg.Go("waiter", func() {
				err := w.wait(ctx, stepped)
				log = append(log, fmt.Sprintf("%v %s ends after %d rounds: %v", k.Now(), w.name, w.r, err))
			})
		}
		wg.Go("waker", func() {
			for j := range 16 {
				_ = k.Sleep(bg, time.Millisecond/2)
				ok := sels[j%tasks].TryWake(j)
				log = append(log, fmt.Sprintf("%v wake %d of task %d: %v", k.Now(), j, j%tasks, ok))
			}
			scope.Cancel()
		})
		_ = wg.Wait(bg)
		lone := &rounds{k: k, sel: NewSelector(k), name: "lone", n: 5, log: &log,
			deadline: func(r int) time.Duration { return time.Duration(r+1) * time.Microsecond }}
		wg.Go("lone", func() { _ = lone.wait(bg, stepped) })
		_ = wg.Wait(bg)
	})
	return log, k.Stats()
}

// TestWaitStepMatchesWaitLoop: a step that parks again N times and then
// resumes its task costs the kernel exactly what the Wait loop it replaces
// does — the same parks, timed parks, wakes, self-wakes and retimes, and the
// same order of every wake — and saves the switches, which Steps counts.
func TestWaitStepMatchesWaitLoop(t *testing.T) {
	wantLog, want := stepProgram(false)
	gotLog, got := stepProgram(true)
	if !slices.Equal(gotLog, wantLog) {
		for i := range min(len(gotLog), len(wantLog)) {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("event %d: %q with steps, %q with a Wait loop", i, gotLog[i], wantLog[i])
			}
		}
		t.Fatalf("%d events with steps, %d with a Wait loop", len(gotLog), len(wantLog))
	}
	if want.Steps != 0 || got.Steps == 0 {
		t.Errorf("Steps %d with a Wait loop and %d with steps; want 0 and some", want.Steps, got.Steps)
	}
	if got.SelfWakes == 0 {
		t.Error("no park woke itself: the program does not cover self-wakes")
	}
	t.Logf("%d events; %+v", len(gotLog), got)
	// The Wait loop switches into each task once at its spawn and once per
	// park that did not wake itself; each step park (none of which wakes
	// itself here) saves one of those switches.
	if want.Switches != want.Spawns+want.Parks-want.SelfWakes || got.Switches != want.Switches-got.Steps {
		t.Errorf("%d switches with a Wait loop and %d with %d steps", want.Switches, got.Switches, got.Steps)
	}
	got.Steps, got.Switches = 0, want.Switches
	if got != want {
		t.Errorf("kernel counts with steps %+v, with a Wait loop %+v", got, want)
	}
}

// TestWaitStepFirstSelfWakeStepsInTask: a first park whose own timer is the
// next event wakes itself inside park and returns to the task, never passing
// through the loop, so the task runs that wake's step itself; a timed park
// made by a step on the loop wakes itself the same way, and SelfWakes
// counts it.
func TestWaitStepFirstSelfWakeStepsInTask(t *testing.T) {
	bg := context.Background()
	for _, c := range []struct {
		name         string
		woken        bool // the first park is untimed, ended by a wake
		steps, selfs uint64
	}{
		{"timed first park", false, 0, 4},
		{"woken first park", true, 3, 3},
	} {
		k := NewVirtual()
		var log []string
		var err error
		w := &rounds{k: k, sel: NewSelector(k), name: "lone", n: 4, log: &log,
			deadline: func(r int) time.Duration { return time.Duration(r+1) * time.Millisecond }}
		if c.woken {
			w.deadline = func(r int) time.Duration { return time.Duration(r) * time.Millisecond }
		}
		k.Run(func() {
			wg := NewWaitGroup(k)
			wg.Go("lone", func() {
				err = w.wait(bg, true)
				log = append(log, fmt.Sprint(k.Now(), " resumed"))
			})
			if c.woken {
				_ = k.Sleep(bg, time.Millisecond)
				w.sel.TryWake(0)
			}
			_ = wg.Wait(bg)
		})
		want := []string{"1ms lone round 0", "3ms lone round 1", "6ms lone round 2", "10ms lone round 3", "10ms resumed"}
		if c.woken {
			want = []string{"1ms lone round 0", "2ms lone round 1", "4ms lone round 2", "7ms lone round 3", "7ms resumed"}
		}
		if err != nil || !slices.Equal(log, want) {
			t.Errorf("%s: %q, %v; want %q", c.name, log, err, want)
		}
		if st := k.Stats(); st.Steps != c.steps || st.SelfWakes != c.selfs {
			t.Errorf("%s: %d steps, %d self-wakes; want %d and %d", c.name, st.Steps, st.SelfWakes, c.steps, c.selfs)
		}
	}
}

// TestWaitStepCancelledResumesUnstepped: cancellation resumes a task parked
// in WaitStep, before its first step or after steps have parked it again,
// and never runs its step: the task returns ctx.Err() and a wake at the
// same instant, after the cancel, is refused.
func TestWaitStepCancelledResumesUnstepped(t *testing.T) {
	bg := context.Background()
	for _, wakes := range []int{0, 3} {
		k := NewVirtual()
		var log []string
		var err error
		w := &rounds{k: k, sel: NewSelector(k), name: "waiter", n: 100, log: &log,
			deadline: func(int) time.Duration { return 0 }}
		k.Run(func() {
			var scope CancelScope
			ctx := scope.Begin(k, bg)
			wg := NewWaitGroup(k)
			wg.Go("waiter", func() { err = w.wait(ctx, true) })
			for range wakes {
				_ = k.Sleep(bg, time.Millisecond)
				w.sel.TryWake(0)
			}
			_ = k.Sleep(bg, time.Millisecond)
			scope.Cancel()
			if w.sel.TryWake(0) {
				t.Error("a wake after the cancel was accepted")
			}
			_ = wg.Wait(bg)
		})
		if !errors.Is(err, context.Canceled) || w.r != wakes {
			t.Errorf("%d wakes: returned %v after %d steps; want context.Canceled after %d", wakes, err, w.r, wakes)
		}
	}
}

// spin is a Stepper that parks again a nanosecond later until stop is set.
type spin struct {
	sel   *Selector
	stop  *bool
	steps *int
	first chan struct{}
}

func (s *spin) Step() (time.Duration, bool) {
	if *s.steps++; *s.steps == 1 {
		close(s.first)
	}
	if *s.stop {
		return 0, false
	}
	s.sel.Reset()
	return 1, true
}

// TestServedStepsLetEntrantsInOnOneCPU: a turn served by a wake step counts
// toward the loop's yield every 64 turns on one CPU, so a goroutine that
// enters while two tasks step each other a nanosecond apart, forever, gets
// in within a few hundred turns, not at the scheduler's 10ms preemption.
func TestServedStepsLetEntrantsInOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := NewVirtual()
	var steps, seen int
	stop := false
	first := make(chan struct{})
	k.Post(func() {
		for range 2 {
			k.Go("spin", func() {
				s := &spin{sel: NewSelector(k), stop: &stop, steps: &steps, first: first}
				s.sel.Reset()
				_ = s.sel.WaitStep(context.Background(), 1, s)
			})
		}
	})
	<-first
	k.Do(func() { seen, stop = steps, true })
	k.Drain()
	t.Logf("an entrant got in after %d steps", seen)
	if seen > 1000 {
		t.Errorf("an entrant got in after %d steps, want a few hundred at most", seen)
	}
}
