package device

import (
	"context"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// TestContendedParkBudgetAndEndTime: 64 tasks keep a capacity-8 device
// eight times oversubscribed, each leaving and re-entering at one instant
// (the rate bends 8/64 → 8/63 → 8/64 and every stamp must come out of it
// unchanged). The budget: a Run parks once — deadline-free, with its timer
// armed under it when it reaches the front — where waking the new front to
// arm its own made it two. The end time is what that device computed.
func TestContendedParkBudgetAndEndTime(t *testing.T) {
	const tasks, runs = 64, 100
	ctx := context.Background()
	k := simtime.NewVirtual()
	k.Run(func() {
		d := New(k, "cpu", 8)
		wg := simtime.NewWaitGroup(k)
		for i := 0; i < tasks; i++ {
			wg.Go("task", func() {
				for j := 0; j < runs; j++ {
					if err := d.Run(ctx, time.Millisecond+time.Duration(i*1000+j)); err != nil {
						t.Error(err)
					}
				}
			})
		}
		_ = wg.Wait(ctx)
	})
	st := k.Stats()
	t.Logf("%d parks, %d retimes for %d runs", st.Parks, st.Retimes, tasks*runs)
	if max := uint64(tasks * runs * 101 / 100); st.Parks > max {
		t.Errorf("%d parks for %d runs, budget %d (1.01 each)", st.Parks, tasks*runs, max)
	}
	if now := k.Now(); now != 825589690 {
		t.Errorf("ended at %d ns, want 825589690", now)
	}
}

// TestContendedRunAllocatesNothing: sixteen tasks keep a warm capacity-4
// device four times oversubscribed, and a contended Run allocates nothing —
// its entry, with the selector it parks on, comes from the device's free
// list. The tasks persist across measured rounds and meet at two barriers,
// which allocate nothing once their wait lists have grown.
func TestContendedRunAllocatesNothing(t *testing.T) {
	const tasks, runs = 16, 8
	ctx := context.Background()
	k := simtime.NewVirtual()
	k.Run(func() {
		d := New(k, "cpu", 4)
		start, end := simtime.NewBarrier(k, tasks+1), simtime.NewBarrier(k, tasks+1)
		wg := simtime.NewWaitGroup(k)
		for i := 0; i < tasks; i++ {
			wg.Go("task", func() {
				for {
					if _, err := start.Wait(ctx); err != nil {
						return
					}
					for j := 0; j < runs; j++ {
						if err := d.Run(ctx, time.Millisecond+time.Duration(i)); err != nil {
							t.Error(err)
						}
					}
					if _, err := end.Wait(ctx); err != nil {
						return
					}
				}
			})
		}
		rounds := func() {
			for range 20 {
				_, _ = start.Wait(ctx)
				_, _ = end.Wait(ctx)
			}
		}
		// One measured call, so the count is a total, not a rounded-down
		// mean; AllocsPerRun's first, unmeasured call warms the entries,
		// the heap, the free list and the wait lists.
		if got := testing.AllocsPerRun(1, rounds); got != 0 {
			t.Errorf("%v allocs in %d contended Runs, want 0", got, 20*tasks*runs)
		}
		start.Break()
		_ = wg.Wait(ctx)
	})
}

// TestRecycledDevicesAllocateNoEntries: the devices of a run, which register
// with their kernel, leave their entries at its Recycle to the next run's
// devices, which then take nine concurrent occupants each without allocating
// an entry; with nothing recycled, each fresh entry is an allocation.
func TestRecycledDevicesAllocateNoEntries(t *testing.T) {
	for {
		if _, ok := entryStock.Get(); !ok {
			break // start from an empty stock
		}
	}
	k := simtime.NewVirtual()
	// A run: two devices, as AllocsPerRun calls its function twice, each
	// taking nine concurrent occupants, who then leave.
	run := func() (allocs float64) {
		devs := []*Device{New(k, "cpu", 4), New(k, "cpu", 4)}
		held := make([][9]*entry, len(devs))
		n := 0
		allocs = testing.AllocsPerRun(1, func() {
			for i := range held[n] {
				held[n][i] = devs[n].newEntry()
			}
			n++
		})
		for i, d := range devs {
			d.free = append(d.free, held[i][:]...)
		}
		k.Recycle() // the devices registered with it
		return allocs
	}
	if got := run(); got != 9 {
		t.Errorf("%v allocs for nine fresh entries, want 9", got)
	}
	if got := run(); got != 0 {
		t.Errorf("%v allocs for nine entries of a device built after a recycled run, want 0", got)
	}
}
