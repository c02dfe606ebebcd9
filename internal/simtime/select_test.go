package simtime

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource is a minimal level-triggered wake source for selector tests.
type fakeSource struct {
	mu    sync.Mutex
	ready bool
	subs  []fakeSub
}

type fakeSub struct {
	s   *Selector
	idx int
}

func (f *fakeSource) Arm(s *Selector, idx int) bool {
	f.mu.Lock()
	if f.ready {
		f.mu.Unlock()
		s.TryWake(idx)
		return true
	}
	f.subs = append(f.subs, fakeSub{s, idx})
	f.mu.Unlock()
	return false
}

func (f *fakeSource) Disarm(s *Selector) {
	f.mu.Lock()
	for i, e := range f.subs {
		if e.s == s {
			f.subs = append(f.subs[:i], f.subs[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

// fire marks the source ready and wakes one armed selector.
func (f *fakeSource) fire() {
	f.mu.Lock()
	f.ready = true
	subs := f.subs
	f.subs = nil
	f.mu.Unlock()
	for _, e := range subs {
		if e.s.TryWake(e.idx) {
			return
		}
	}
}

func TestSelectReturnsFirstReadySource(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		a := &fakeSource{ready: true}
		b := &fakeSource{ready: true}
		sel := NewSelector(k)
		start := k.Now()
		idx, err := sel.Select(context.Background(), 0, a, b)
		if err != nil || idx != 0 {
			t.Fatalf("Select = %d, %v; want 0, nil (priority order)", idx, err)
		}
		if k.Now() != start {
			t.Fatal("ready Select advanced virtual time")
		}
	})
}

func TestSelectWokenBySourceAtSameVirtualInstant(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		src := &fakeSource{}
		other := &fakeSource{}
		var wokeAt time.Duration
		wg := NewWaitGroup(k)
		wg.Go("waiter", func() {
			sel := NewSelector(k)
			idx, err := sel.Select(context.Background(), 0, other, src)
			if err != nil || idx != 1 {
				t.Errorf("Select = %d, %v; want 1, nil", idx, err)
			}
			wokeAt = k.Now()
		})
		wg.Go("waker", func() {
			_ = k.Sleep(context.Background(), 25*time.Millisecond)
			src.fire()
		})
		_ = wg.Wait(context.Background())
		if wokeAt != 25*time.Millisecond {
			t.Fatalf("woke at %v, want exactly 25ms (event time, not poll granularity)", wokeAt)
		}
	})
}

func TestSelectHeartbeatIsDeterministicUnderVirtual(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		src := &fakeSource{}
		sel := NewSelector(k)
		start := k.Now()
		idx, err := sel.Select(context.Background(), 50*time.Millisecond, src)
		if err != nil || idx != Heartbeat {
			t.Fatalf("Select = %d, %v; want Heartbeat, nil", idx, err)
		}
		if got := k.Now() - start; got != 50*time.Millisecond {
			t.Fatalf("heartbeat fired after %v, want exactly 50ms", got)
		}
	})
}

func TestSelectSourceBeatsLaterHeartbeat(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		src := &fakeSource{}
		wg := NewWaitGroup(k)
		wg.Go("waiter", func() {
			sel := NewSelector(k)
			idx, err := sel.Select(context.Background(), time.Second, src)
			if err != nil || idx != 0 {
				t.Errorf("Select = %d, %v; want 0, nil", idx, err)
			}
			if k.Now() != 10*time.Millisecond {
				t.Errorf("woke at %v, want 10ms", k.Now())
			}
		})
		wg.Go("waker", func() {
			_ = k.Sleep(context.Background(), 10*time.Millisecond)
			src.fire()
		})
		_ = wg.Wait(context.Background())
	})
}

func TestTryWakeClaimsOnce(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		sel := NewSelector(k)
		sel.Reset()
		if !sel.TryWake(3) {
			t.Fatal("first TryWake should claim")
		}
		if sel.TryWake(4) {
			t.Fatal("second TryWake must fail so the wakeup is passed on")
		}
		idx, err := sel.Wait(context.Background(), 0)
		if err != nil || idx != 3 {
			t.Fatalf("Wait = %d, %v; want 3, nil", idx, err)
		}
	})
}

func TestSelectCancellation(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		src := &fakeSource{}
		ctx, cancel := context.WithCancel(context.Background())
		wg := NewWaitGroup(k)
		wg.Go("waiter", func() {
			sel := NewSelector(k)
			if _, err := sel.Select(ctx, 0, src); err != context.Canceled {
				t.Errorf("Select err = %v, want context.Canceled", err)
			}
			if sel.TryWake(0) {
				t.Error("TryWake after cancellation must report undelivered")
			}
		})
		wg.Go("canceller", func() {
			_ = k.Sleep(context.Background(), time.Millisecond)
			cancel()
		})
		_ = wg.Wait(context.Background())
	})
}

func TestSelectorReuseAcrossCycles(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		src := &fakeSource{}
		sel := NewSelector(k)
		for cycle := 0; cycle < 5; cycle++ {
			src.mu.Lock()
			src.ready = true
			src.mu.Unlock()
			idx, err := sel.Select(context.Background(), 0, src)
			if err != nil || idx != 0 {
				t.Fatalf("cycle %d: Select = %d, %v", cycle, idx, err)
			}
			src.mu.Lock()
			src.ready = false
			src.mu.Unlock()
			if idx, err := sel.Select(context.Background(), 5*time.Millisecond, src); err != nil || idx != Heartbeat {
				t.Fatalf("cycle %d: heartbeat Select = %d, %v", cycle, idx, err)
			}
		}
	})
}

func TestGatePulseWakesAllArmed(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		g := new(Gate)
		wg := NewWaitGroup(k)
		for i := 0; i < 3; i++ {
			wg.Go("waiter", func() {
				sel := NewSelector(k)
				if idx, err := sel.Select(context.Background(), 0, g); err != nil || idx != 0 {
					t.Errorf("Select = %d, %v; want 0, nil", idx, err)
				}
			})
		}
		wg.Go("pulser", func() {
			_ = k.Sleep(context.Background(), time.Millisecond)
			g.Pulse()
		})
		_ = wg.Wait(context.Background())
	})
}

// TestGateClosesCheckThenArmRace pins the property the loader's drain
// accounting relies on: a pulse delivered between a condition check and the
// subsequent Arm is not lost — Arm fires immediately because the gate
// version advanced since this selector last armed.
func TestGateClosesCheckThenArmRace(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		g := new(Gate)
		sel := NewSelector(k)
		// Establish a baseline cycle so the selector has seen version 0.
		g.Arm(sel, 0)
		g.Disarm(sel)
		// The condition check would happen here; the pulse lands after it.
		g.Pulse()
		start := k.Now()
		idx, err := sel.Select(context.Background(), 0, g)
		if err != nil || idx != 0 {
			t.Fatalf("Select = %d, %v; want immediate wake from missed pulse", idx, err)
		}
		if k.Now() != start {
			t.Fatal("missed-pulse recovery advanced virtual time")
		}
	})
}

// TestGatePulseRacesSelectorReuse drives 2000 cycles of one selector against
// a pulser: every pulse must either claim the owner's current cycle or be
// picked up as a missed pulse at its next Arm — a lost one hangs the owner
// and the kernel reports a deadlock.
func TestGatePulseRacesSelectorReuse(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		g := new(Gate)
		var done atomic.Bool
		wg := NewWaitGroup(k)
		wg.Go("owner", func() {
			defer done.Store(true)
			sel := NewSelector(k)
			for i := 0; i < 2000; i++ {
				if idx, err := sel.Select(context.Background(), 0, g); err != nil || idx != 0 {
					t.Errorf("cycle %d: Select = %d, %v", i, idx, err)
					return
				}
			}
		})
		wg.Go("pulser", func() {
			for !done.Load() {
				g.Pulse()
				// Park so the owner runs: one task at a time.
				_ = k.Sleep(context.Background(), time.Nanosecond)
			}
		})
		_ = wg.Wait(context.Background())
	})
}

// TestGateWakesInArmOrderAcrossDisarms pins the subscriber list: Pulse wakes
// in the order selectors armed, and a Disarm — first, middle or last — takes
// its selector out without disturbing the order of the rest.
func TestGateWakesInArmOrderAcrossDisarms(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		ctx := context.Background()
		g := new(Gate)
		const n = 8
		gone := map[int]bool{0: true, 3: true, 7: true}
		var woke []int
		sels := make([]*Selector, n)
		wg := NewWaitGroup(k)
		for i := range sels {
			sels[i] = NewSelector(k)
			sels[i].Reset()
			if g.Arm(sels[i], i) {
				t.Fatalf("selector %d: Arm on a never-pulsed gate fired at once", i)
			}
			if gone[i] {
				continue
			}
			wg.Go("waiter", func() {
				idx, err := sels[i].Wait(ctx, 0)
				if err != nil || idx != i {
					t.Errorf("selector %d: Wait = %d, %v", i, idx, err)
				}
				woke = append(woke, i)
			})
		}
		_ = k.Sleep(ctx, time.Millisecond) // the waiters are parked
		for i := range gone {
			g.Disarm(sels[i])
			g.Disarm(sels[i]) // a second Disarm is a no-op
		}
		g.Pulse()
		_ = wg.Wait(ctx)
		if want := []int{1, 2, 4, 5, 6}; !slices.Equal(woke, want) {
			t.Fatalf("wake order %v, want %v", woke, want)
		}
		if g.armed.Len() != 0 {
			t.Fatal("Pulse left subscribers behind")
		}
		// A disarmed selector missed that pulse: its next Arm fires at once.
		sels[3].Reset()
		if !g.Arm(sels[3], 0) {
			t.Fatal("Arm after a missed pulse did not fire")
		}
	})
}

// TestGateVersionIsPerGate: the seen-version lives on the selector, so it is
// dropped when the selector moves to another gate — at the price of one
// spurious wake, never a lost one — and arming two gates at once is refused.
func TestGateVersionIsPerGate(t *testing.T) {
	k := NewVirtual()
	a, b := new(Gate), new(Gate)
	a.Pulse()
	a.Pulse()
	sel := NewSelector(k)
	sel.Reset()
	if !a.Arm(sel, 0) {
		t.Fatal("first Arm on a pulsed gate must fire: the selector has seen version 0")
	}
	sel.Reset()
	if a.Arm(sel, 0) {
		t.Fatal("second Arm fired with no pulse in between")
	}
	a.Disarm(sel)
	sel.Reset()
	if b.Arm(sel, 0) {
		t.Fatal("Arm on a never-pulsed second gate fired")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arming a second gate while subscribed to the first did not panic")
		}
	}()
	a.Arm(sel, 0)
}
