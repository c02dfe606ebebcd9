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
