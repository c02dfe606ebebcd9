package queue

import (
	"context"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

func TestArmReportsReadyOnNonEmptyAndClosed(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 4)
		_ = q.Put(context.Background(), 1)
		sel := simtime.NewSelector(k)
		sel.Reset()
		if !q.Arm(sel, 0) {
			t.Fatal("Arm on a non-empty queue must report ready")
		}
		closed := New[int](k, "closed", 4)
		closed.Close()
		sel2 := simtime.NewSelector(k)
		sel2.Reset()
		if !closed.Arm(sel2, 0) {
			t.Fatal("Arm on a closed queue must report ready")
		}
	})
}

func TestWaitAnyWokenByPut(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q1 := New[int](k, "q1", 4)
		q2 := New[int](k, "q2", 4)
		wg := simtime.NewWaitGroup(k)
		wg.Go("consumer", func() {
			idx, err := WaitAny(context.Background(), k, 0, q1, q2)
			if err != nil || idx != 1 {
				t.Errorf("WaitAny = %d, %v; want 1, nil", idx, err)
			}
			if k.Now() != 30*time.Millisecond {
				t.Errorf("woke at %v, want exactly 30ms", k.Now())
			}
		})
		wg.Go("producer", func() {
			_ = k.Sleep(context.Background(), 30*time.Millisecond)
			_ = q2.Put(context.Background(), 7)
		})
		_ = wg.Wait(context.Background())
	})
}

func TestWaitAnyPriorityOrder(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		fast := New[int](k, "fast", 4)
		slow := New[int](k, "slow", 4)
		_ = fast.Put(context.Background(), 1)
		_ = slow.Put(context.Background(), 2)
		idx, err := WaitAny(context.Background(), k, 0, fast, slow)
		if err != nil || idx != 0 {
			t.Fatalf("WaitAny = %d, %v; want the fast queue (0) when both ready", idx, err)
		}
	})
}

func TestWaitAnyWokenByClose(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 4)
		wg := simtime.NewWaitGroup(k)
		wg.Go("consumer", func() {
			idx, err := WaitAny(context.Background(), k, 0, q)
			if err != nil || idx != 0 {
				t.Errorf("WaitAny = %d, %v; want 0, nil on close", idx, err)
			}
			if _, _, err := q.TryGet(); err != ErrClosed {
				t.Errorf("TryGet after close = %v, want ErrClosed", err)
			}
		})
		wg.Go("closer", func() {
			_ = k.Sleep(context.Background(), time.Millisecond)
			q.Close()
		})
		_ = wg.Wait(context.Background())
	})
}

// TestWakePassedOnWhenSelectorClaimed pins the no-lost-wakeup property: a
// subscription whose selector was already claimed by another source must not
// swallow a put's wakeup — the queue skips it and wakes the next waiter (a
// blocked Get) instead.
func TestWakePassedOnWhenSelectorClaimed(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 4)
		sel := simtime.NewSelector(k)
		sel.Reset()
		if q.Arm(sel, 5) {
			t.Fatal("empty queue reported ready")
		}
		// Another source claims the selector; its q subscription is now dead
		// but still registered (Disarm has not run yet).
		if !sel.TryWake(99) {
			t.Fatal("claim failed")
		}
		wg := simtime.NewWaitGroup(k)
		wg.Go("getter", func() {
			// First in line behind the dead subscription.
			v, err := q.Get(context.Background())
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v; want 42, nil", v, err)
			}
		})
		wg.Go("producer", func() {
			_ = k.Sleep(context.Background(), time.Millisecond)
			_ = q.Put(context.Background(), 42)
		})
		_ = wg.Wait(context.Background())
		if idx, err := sel.Wait(context.Background(), 0); err != nil || idx != 99 {
			t.Fatalf("Wait = %d, %v; want the claiming source's index 99", idx, err)
		}
		q.Disarm(sel)
	})
}

// TestDisarmManyWaitersKeepsFIFO arms 256 selectors on one empty queue,
// disarms every other one (front, middle and back of the wait list, each a
// tombstone rather than a compaction), re-arms some at the tail, and checks
// that puts then wake the survivors one by one in arm order, that a disarmed
// selector is never woken, and that the list ends empty.
func TestDisarmManyWaitersKeepsFIFO(t *testing.T) {
	const n = 256
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", n)
		sels := make([]*simtime.Selector, n)
		for i := range sels {
			sels[i] = simtime.NewSelector(k)
			sels[i].Reset()
			if q.Arm(sels[i], i) {
				t.Fatalf("empty queue reported ready at %d", i)
			}
		}
		var want []int
		for i, s := range sels {
			switch {
			case i%2 == 1:
				want = append(want, i) // stays armed, in place
			case i%8 == 0:
				q.Disarm(s)
				q.Disarm(s) // a second Disarm is a no-op
				s.Reset()
				q.Arm(s, i) // back of the line
			default:
				q.Disarm(s)
			}
		}
		for i := 0; i < n; i += 8 {
			want = append(want, i)
		}
		// Each put wakes exactly one armed selector, the oldest: after the
		// rank-th put, want[rank] has been claimed and delivers its index.
		for rank, i := range want {
			if ok, err := q.TryPut(0); !ok || err != nil {
				t.Fatalf("TryPut = %v, %v", ok, err)
			}
			if sels[i].TryWake(-2) {
				t.Fatalf("put %d did not wake selector %d, the oldest one armed", rank, i)
			}
			if idx, err := sels[i].Wait(context.Background(), 0); err != nil || idx != i {
				t.Fatalf("selector %d: Wait = %d, %v", i, idx, err)
			}
		}
		for i, s := range sels {
			if i%2 == 0 && i%8 != 0 && !s.TryWake(-2) {
				t.Fatalf("disarmed selector %d was woken by a put", i)
			}
		}
		if n := q.getWaiters.Len(); n != 0 {
			t.Fatalf("%d entries left in the wait list", n)
		}
	})
}
