package simtime

import (
	"context"
	"testing"
	"time"
)

// TestFlightsParkFollowersUntilTheLeaderLands: the first Join of a key
// leads, later ones park on one list and resume together, in arrival order,
// when the leader lands; a key that has landed can fly again; and from the
// second flight on the list and its selectors come from the ones before.
func TestFlightsParkFollowersUntilTheLeaderLands(t *testing.T) {
	ctx := context.Background()
	k := NewVirtual()
	k.Run(func() {
		var f Flights[string]
		var order []int
		wg := NewWaitGroup(k)
		flight := func() {
			if w := f.Join("a", k); w != nil {
				t.Fatal("the first Join did not lead")
			}
			for i := 0; i < 4; i++ {
				wg.Go("follower", func() {
					w := f.Join("a", k)
					if w == nil {
						t.Error("a follower became the leader of a flight under way")
						return
					}
					if err := w.Wait(ctx); err != nil {
						t.Error(err)
					}
					order = append(order, i)
				})
			}
			_ = k.Sleep(ctx, time.Millisecond) // every follower parks
			if len(f.m) != 1 || len(order) != 0 {
				t.Errorf("%d keys in flight, %d followers through before the landing", len(f.m), len(order))
			}
			if n := f.Land("a"); n != 4 {
				t.Errorf("Land = %d followers, want 4", n)
			}
			_ = wg.Wait(ctx)
			if len(order) != 4 || order[0] != 0 || order[3] != 3 || len(f.m) != 0 {
				t.Errorf("followers resumed in order %v with %d keys left", order, len(f.m))
			}
			order = order[:0]
		}
		flight()
		if len(f.m) != 0 || len(f.idle) != 1 {
			t.Errorf("%d keys in flight, %d idle lists after the landing, want 0, 1", len(f.m), len(f.idle))
		}
		// Eight for the four spawns' closures, none for the flight itself.
		if got := testing.AllocsPerRun(20, flight); got > 8 {
			t.Errorf("%v allocations per repeated flight, want the spawns' 8", got)
		}
		if f.Land("never flew") != 0 {
			t.Error("landing a key that is not in flight reported followers")
		}
	})
}
