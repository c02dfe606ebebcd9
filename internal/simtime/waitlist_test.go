package simtime

import (
	"cmp"
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
			if l.WakeAll() != 0 || len(k.sels) != 0 {
				t.Fatalf("a cancelled waiter accepted the wake, or the waker handed its selector back (%d spare)", len(k.sels))
			}
			_ = k.Sleep(ctx, time.Second)
			if err != context.Canceled || len(k.sels) != 1 {
				t.Fatalf("Wait = %v with %d spare selectors, want Canceled and 1", err, len(k.sels))
			}
		}},
		{"a Wait given up and passed over never touches the list again", func(t *testing.T, k *Virtual, l *WaitList) {
			var scope CancelScope
			cancelled := scope.Begin(k, ctx)
			var err error
			k.Go("quitter", func() { err = l.Wait(cancelled) })
			_ = k.Sleep(ctx, time.Second)
			scope.Cancel()
			if l.WakeAll() != 0 {
				t.Fatal("a cancelled waiter accepted the wake")
			}
			// The list may go to another owner before the quitter resumes:
			// poisoned so, a look at the quitter's note would index a ring
			// that is not there.
			saved := *l
			l.head, l.tail, l.ring = 0, 1<<62, nil
			_ = k.Sleep(ctx, time.Second)
			*l = saved
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
			if l.WakeAll() != 1 || len(k.sels) != 1 {
				t.Fatalf("WakeAll woke other than the one live waiter, or handed back other than its selector (%d spare)", len(k.sels))
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

// TestWaitListRingTracksLiveEntries: one waiter stays parked at the head
// while 10,000 selectors arm and disarm behind it, each disarming the one
// armed before it, so every tombstone lies inside the window and none at an
// end. The ring compacts instead of growing — it stays at the first heap
// ring, 8 slots, for 2 or 3 live entries — and the positions it renumbers
// still find their entries: the waiter's, when it gives up, and each armed
// selector's.
func TestWaitListRingTracksLiveEntries(t *testing.T) {
	ctx := context.Background()
	k := NewVirtual()
	k.Run(func() {
		var l WaitList
		l.Init(k)
		var scope CancelScope
		cancelled := scope.Begin(k, ctx)
		var err error
		k.Go("parked", func() { err = l.Wait(cancelled) })
		_ = k.Sleep(ctx, time.Second)
		sels := [2]*Selector{NewSelector(k), NewSelector(k)}
		ring := 0 // the largest ring the list took
		for i := range 10_000 {
			s := sels[i%2]
			s.Reset()
			l.Arm(s, i)
			if i > 0 && !l.Disarm(sels[(i-1)%2]) {
				t.Errorf("step %d: the selector armed before was not found at its noted position", i)
				break
			}
			ring = max(ring, len(l.ring))
		}
		if ring != 8 {
			t.Errorf("the ring reached %d slots for at most 3 live entries, want 8", ring)
		}
		scope.Cancel()
		_ = k.Sleep(ctx, time.Second)
		if err != context.Canceled || l.Len() != 1 {
			t.Errorf("the parked waiter's Wait = %v with %d entries left, want Canceled and 1", err, l.Len())
		}
		if !l.WakeOne() || sels[1].idx != 9_999 {
			t.Errorf("the last armed selector was not woken (result %d)", sels[1].idx)
		}
	})
	k.Drain()
}

// wlEntry is one entry of FuzzWaitList's reference list: a waiting task
// (sel nil) or an armed selector, and whether its Wait was cancelled.
type wlEntry struct {
	id        int
	sel       *Selector
	cancelled bool
	scope     *CancelScope
}

// FuzzWaitList holds a WaitList to a plain FIFO slice. Each byte is one
// operation, its low three bits the kind and the rest an argument: a task's
// Wait, an Arm (also on a second list when the argument is odd, whose notes
// then sit beside this list's), a Disarm of an armed entry, a cancel of a
// waiting task, WakeOne, WakeAll, Init when the list is empty, and a yield
// that lets woken and cancelled waiters resume. After every operation the
// list's length is the reference's; WakeOne and WakeAll accept the wakes the
// reference predicts, and the entries resume in its order; and the ring is
// at most max(8, 4 × the peak number of entries). The seed corpus runs with
// the tests; `go test -run '^$' -fuzz FuzzWaitList ./internal/simtime/`
// searches for more.
func FuzzWaitList(f *testing.F) {
	for _, seed := range []string{
		"\x00\x07\x04\x07",                                     // a Wait, woken
		"\x01\x09\x11\x04\x04\x05",                             // three Arms, FIFO wakes
		"\x00\x00\x07\x03\x04\x07",                             // a cancelled Wait refuses, the next takes the wake
		"\x00\x01\x09\x02\x0a\x01\x02\x01\x0a\x02\x01\x02\x05", // churn behind a parked Wait
		"\x00\x07\x03\x07\x06\x00\x07\x05\x07",                 // cancel, leave, Init when empty, wait anew
		// Seven Arms past the inline pair, six Disarms, three Arms: a repack.
		"\x00\x07\x01\x01\x01\x01\x01\x01\x01\x0a\x12\x1a\x22\x2a\x32\x01\x01\x01\x05\x07",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		ctx := context.Background()
		k := NewVirtual()
		var bad error // the first mismatch; the run stops there and lets its waiters go
		fail := func(format string, args ...any) { bad = cmp.Or(bad, fmt.Errorf(format, args...)) }
		k.Run(func() {
			var l, other WaitList
			l.Init(k)
			var ref, armed []*wlEntry // armed: the reference's Arm entries
			var woke, want []int      // Wait ids in the order they resumed and were woken
			var idle []*Selector      // selectors out of the list, for the next Arm
			peak, next := 0, 0
			drop := func(e *wlEntry) {
				ref = slices.DeleteFunc(ref, func(x *wlEntry) bool { return x == e })
				armed = slices.DeleteFunc(armed, func(x *wlEntry) bool { return x == e })
			}
			// wake delivers the reference's wake to its first entry that
			// accepts one, dropping the cancelled ones it passes.
			wake := func() bool {
				for len(ref) > 0 {
					e := ref[0]
					drop(e)
					switch {
					case e.cancelled:
						continue
					case e.sel == nil:
						want = append(want, e.id)
					default:
						if e.sel.state != selWoken || e.sel.idx != e.id {
							fail("armed entry %d not woken with its index", e.id)
						}
						other.Disarm(e.sel)
						idle = append(idle, e.sel)
					}
					return true
				}
				return false
			}
			// yield lets woken and cancelled waiters resume: a cancelled one
			// still on the list takes its entry out.
			yield := func() {
				_ = k.Sleep(ctx, time.Nanosecond)
				ref = slices.DeleteFunc(ref, func(e *wlEntry) bool { return e.cancelled })
				if !slices.Equal(woke, want) {
					fail("waiters resumed in order %v, woken in %v", woke, want)
				}
			}
			for _, b := range ops {
				if bad != nil {
					break
				}
				op, arg := b&7, int(b>>3)
				switch op {
				case 0:
					e := &wlEntry{id: next, scope: new(CancelScope)}
					wctx := e.scope.Begin(k, ctx)
					k.Go("waiter", func() {
						if l.Wait(wctx) == nil {
							woke = append(woke, e.id)
						}
					})
					yield() // it parks
					ref = append(ref, e)
				case 1:
					s := NewSelector(k)
					if n := len(idle); n > 0 {
						s, idle = idle[n-1], idle[:n-1]
					}
					s.Reset()
					if arg%2 == 1 {
						other.Arm(s, -1)
					}
					l.Arm(s, next)
					e := &wlEntry{id: next, sel: s}
					ref, armed = append(ref, e), append(armed, e)
				case 2:
					if len(armed) > 0 {
						e := armed[arg%len(armed)]
						if !l.Disarm(e.sel) || l.Disarm(e.sel) {
							fail("Disarm of armed entry %d did not take it out exactly once", e.id)
						}
						other.Disarm(e.sel)
						drop(e)
						idle = append(idle, e.sel)
					}
				case 3:
					var waiting []*wlEntry
					for _, e := range ref {
						if e.sel == nil && !e.cancelled {
							waiting = append(waiting, e)
						}
					}
					if len(waiting) > 0 {
						e := waiting[arg%len(waiting)]
						e.cancelled = true
						e.scope.Cancel()
					}
				case 4:
					if got, exp := l.WakeOne(), wake(); got != exp {
						fail("WakeOne = %v, reference %v", got, exp)
					}
				case 5:
					got, exp := l.WakeAll(), 0
					for wake() {
						exp++
					}
					if got != exp {
						fail("WakeAll woke %d, reference %d", got, exp)
					}
				case 6:
					if len(ref) == 0 {
						l.Init(k)
					}
				case 7:
					yield()
				}
				next++
				peak = max(peak, len(ref))
				if l.Len() != len(ref) {
					fail("after op %d: %d entries, reference %d", op, l.Len(), len(ref))
				}
				if len(l.ring) > max(8, 4*peak) {
					fail("after op %d: ring of %d slots, peak %d entries", op, len(l.ring), peak)
				}
			}
			for _, e := range ref {
				if e.scope != nil {
					e.scope.Cancel()
				}
			}
			l.WakeAll()
			_ = k.Sleep(ctx, time.Nanosecond)
		})
		k.Drain()
		if bad != nil {
			t.Fatal(bad)
		}
	})
}
