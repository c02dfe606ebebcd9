package simtime

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"
)

// waitAlone parks the calling task on a list of its own, which nothing
// wakes: it returns ctx's error once ctx is done.
func waitAlone(k *Virtual, ctx context.Context) error {
	var l WaitList
	l.Init(k)
	return l.Wait(ctx)
}

// TestWaitList is the WaitList contract: FIFO wakes whichever way an entry
// joined, wakes that pass over refusals, waiters that give up leaving the
// list and handing back their selector, Disarm by noted position, zeroed
// slots, and a list reused at the instant it was woken.
func TestWaitList(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		run  func(t *testing.T, k *Virtual, l *WaitList)
	}{
		{"woken while parked", func(t *testing.T, k *Virtual, l *WaitList) {
			var err error = context.Canceled
			k.Go("waiter", func() { err = l.Wait(ctx) })
			_ = k.Sleep(ctx, time.Second)
			if !l.WakeOne() {
				t.Fatal("WakeOne refused by a parked waiter")
			}
			_ = k.Sleep(ctx, time.Second)
			if err != nil || l.Len() != 0 {
				t.Fatalf("Wait = %v with %d entries left, want nil and none", err, l.Len())
			}
		}},
		{"FIFO across Wait and Arm", func(t *testing.T, k *Virtual, l *WaitList) {
			var woke []string
			for i := range 4 {
				k.Go("entry", func() {
					if i%2 == 0 {
						if err := l.Wait(ctx); err != nil {
							t.Error(err)
						}
						woke = append(woke, fmt.Sprint("wait", i))
						return
					}
					s := NewSelector(k)
					s.Reset()
					l.Arm(s, i)
					idx, err := s.Wait(ctx, 0)
					if err != nil {
						t.Error(err)
					}
					woke = append(woke, fmt.Sprint("arm", idx))
				})
			}
			_ = k.Sleep(ctx, time.Second) // all four joined, in spawn order
			for range 4 {
				if !l.WakeOne() {
					t.Fatal("WakeOne found nobody to wake")
				}
			}
			if l.WakeOne() {
				t.Fatal("WakeOne on an empty list woke someone")
			}
			_ = k.Sleep(ctx, time.Second)
			if want := []string{"wait0", "arm1", "wait2", "arm3"}; !slices.Equal(woke, want) {
				t.Fatalf("woken in order %v, want %v", woke, want)
			}
		}},
		{"refused wake passes to the next", func(t *testing.T, k *Virtual, l *WaitList) {
			s := NewSelector(k)
			s.Reset()
			l.Arm(s, 5)
			if !s.TryWake(99) { // another source claims it first
				t.Fatal("claim failed")
			}
			woken := false
			k.Go("waiter", func() { woken = l.Wait(ctx) == nil })
			_ = k.Sleep(ctx, time.Second)
			if !l.WakeOne() {
				t.Fatal("the wake the claimed selector refused was lost")
			}
			_ = k.Sleep(ctx, time.Second)
			if idx, _ := s.Wait(ctx, 0); !woken || idx != 99 || l.Disarm(s) {
				t.Fatalf("waiter woken %v, claimed selector delivered %d: want true, 99, its entry gone", woken, idx)
			}
		}},
		{"cancelled Wait refuses a wake", func(t *testing.T, k *Virtual, l *WaitList) {
			var scope CancelScope
			cancelled := scope.Begin(k, ctx)
			var err error
			k.Go("waiter", func() { err = l.Wait(cancelled) })
			_ = k.Sleep(ctx, time.Second)
			scope.Cancel()
			if l.WakeAll() != 0 || len(k.sels) != 1 {
				t.Fatalf("a cancelled waiter accepted the wake, or the waker kept its selector (%d spare)", len(k.sels))
			}
			_ = k.Sleep(ctx, time.Second)
			if err != context.Canceled || len(k.sels) != 1 {
				t.Fatalf("Wait = %v with %d spare selectors, want Canceled and 1", err, len(k.sels))
			}
		}},
		{"cancelled Wait leaves the list and frees its selector", func(t *testing.T, k *Virtual, l *WaitList) {
			var scope CancelScope
			cancelled := scope.Begin(k, ctx)
			k.Go("quitter", func() { _ = l.Wait(cancelled) })
			k.Go("waiter", func() { _ = l.Wait(ctx) })
			_ = k.Sleep(ctx, time.Second)
			quitter := l.slot(l.head).sel
			scope.Cancel()
			_ = k.Sleep(ctx, time.Second)
			if l.Len() != 1 || !slices.Equal(k.sels, []*Selector{quitter}) {
				t.Fatalf("after the quitter left: %d entries, spare selectors %v, want 1 and its own", l.Len(), k.sels)
			}
			k.Go("next", func() { _ = l.Wait(ctx) })
			_ = k.Sleep(ctx, time.Second)
			if l.Len() != 2 || l.slot(l.tail-1).sel != quitter {
				t.Fatal("the next waiter did not take the quitter's selector")
			}
			if l.WakeAll() != 2 {
				t.Fatal("WakeAll did not wake the two waiters")
			}
		}},
		{"Disarm by noted position over 256 selectors", func(t *testing.T, k *Virtual, l *WaitList) {
			const n = 256
			var other WaitList
			sels := make([]*Selector, n)
			for i := range sels {
				sels[i] = NewSelector(k)
				sels[i].Reset()
			}
			for i := n - 1; i >= 0; i-- { // first a note of another list's, at another position
				other.Arm(sels[i], -1)
			}
			for i, s := range sels {
				l.Arm(s, i)
			}
			var live []int
			for i := n - 1; i >= 0; i-- { // back to front: the tail shrinks too
				if i%3 != 0 {
					if !l.Disarm(sels[i]) || l.Disarm(sels[i]) {
						t.Fatalf("selector %d: Disarm did not take its entry out exactly once", i)
					}
				} else {
					live = append([]int{i}, live...)
				}
			}
			if other.Len() != n {
				t.Fatalf("Disarm on one list took %d entries out of another", n-other.Len())
			}
			for _, i := range live {
				if !l.WakeOne() {
					t.Fatalf("WakeOne found nobody, selector %d still armed", i)
				}
				if idx, err := sels[i].Wait(ctx, 0); err != nil || idx != i {
					t.Fatalf("selector %d: Wait = %d, %v; the oldest armed was not woken", i, idx, err)
				}
			}
			if l.Len() != 0 || other.WakeAll() != n-len(live) {
				t.Fatalf("%d entries left; a disarmed selector was woken", l.Len())
			}
		}},
		{"slots zeroed after pops and removes", func(t *testing.T, k *Virtual, l *WaitList) {
			sels := make([]*Selector, 6)
			for i := range sels {
				sels[i] = NewSelector(k)
				sels[i].Reset()
				l.Arm(sels[i], i) // past the inline pair: a heap ring of 8
			}
			k.Go("waiter", func() { _ = l.Wait(ctx) })
			_ = k.Sleep(ctx, time.Second)
			l.Disarm(sels[2])
			l.Disarm(sels[5])
			l.WakeOne()
			l.WakeAll()
			for i, e := range append(l.ring, l.inline[:]...) {
				if e != (waitEntry{}) {
					t.Fatalf("slot %d still holds %+v", i, e)
				}
			}
		}},
		{"woken then Init-ed and waited on at one instant", func(t *testing.T, k *Virtual, l *WaitList) {
			var scope, rescue CancelScope
			cancelled := scope.Begin(k, ctx)
			k.Go("woken", func() { _ = l.Wait(ctx) })
			k.Go("cancelled", func() { _ = l.Wait(cancelled) })
			k.Go("waker", func() {
				_ = k.Sleep(ctx, 2*time.Second)
				if !l.WakeOne() {
					t.Error("the new waiter's entry was gone when its wake came")
					rescue.Cancel()
				}
			})
			_ = k.Sleep(ctx, time.Second)
			// At one instant: the wake, the Init and a new Wait, before the
			// two waiters resume — and touch the list, were they to.
			scope.Cancel()
			if l.WakeAll() != 1 || len(k.sels) != 2 {
				t.Fatalf("WakeAll woke other than the one live waiter, or kept a selector (%d spare)", len(k.sels))
			}
			first := l.head
			l.Init(k)
			if err := l.Wait(rescue.Begin(k, ctx)); err != nil {
				t.Fatalf("the new waiter's Wait = %v", err)
			}
			if l.Len() != 0 || l.head != first+1 {
				t.Fatalf("%d entries left, head at %d: want none, %d", l.Len(), l.head, first+1)
			}
			if len(k.sels) != 2 || k.sels[0] == k.sels[1] {
				t.Fatalf("spare selectors %v, want the two the first waiters parked on", k.sels)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := NewVirtual()
			k.Run(func() {
				k.sels = nil // not those of a kernel recycled before
				var l WaitList
				l.Init(k)
				c.run(t, k, &l)
			})
			k.Drain()
		})
	}
}
