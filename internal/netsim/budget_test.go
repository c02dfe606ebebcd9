package netsim

import (
	"context"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// TestStarParkBudgetAndEndState is the served shape in miniature: endpoint
// 0 sends a ~32 MiB frame to each of 64 clients and gets 64 bytes back, 16
// rounds each, on a 264-endpoint fabric — every large flow crosses one
// egress link, so every entry and exit changes every rate. The budget: a
// Transfer parks twice (latency, then the flow) however often its rate
// moves. The end state is what the wake-to-re-park fabric computed (61,603
// parks): re-timing in place skips instants at which nothing happened, and
// moves none at which something did.
func TestStarParkBudgetAndEndState(t *testing.T) {
	const clients, rounds = 64, 16
	ctx := context.Background()
	k := simtime.NewVirtual()
	var f *Fabric
	k.Run(func() {
		f = New(k, Config{Endpoints: 264, Bandwidth: 25e9, Latency: 200 * time.Microsecond})
		wg := simtime.NewWaitGroup(k)
		for c := 1; c <= clients; c++ {
			wg.Go("client", func() {
				for j := 0; j < rounds; j++ {
					if err := f.Transfer(ctx, 0, c, int64(32<<20+c<<12+j<<8)); err != nil {
						t.Error(err)
					}
					if err := f.Transfer(ctx, c, 0, 64); err != nil {
						t.Error(err)
					}
				}
			})
		}
		_ = wg.Wait(ctx)
	})
	const transfers = clients * rounds * 2
	st := k.Stats()
	t.Logf("%d parks, %d retimes for %d transfers", st.Parks, st.Retimes, transfers)
	if st.Parks > 2*transfers+1 { // + the join
		t.Errorf("%d parks for %d transfers, budget 2 each + 1", st.Parks, transfers)
	}
	if now, moved := k.Now(), f.BytesMoved(); now != 1380390488 || moved != 34498084864 {
		t.Errorf("ended at %d ns with %d bytes moved, want 1380390488 and 34498084864", now, moved)
	}
	for _, c := range []struct {
		endpoint, dir int
		want          float64
	}{
		{0, 0, 1.3799207850000259},
		{0, 1, 3.0719999999999301e-06},
		{5, 1, 0.021489172625411918},
	} {
		if got := f.LinkBusySeconds(c.endpoint, c.dir); got != c.want {
			t.Errorf("LinkBusySeconds(%d, %d) = %.17g, want %.17g", c.endpoint, c.dir, got, c.want)
		}
	}
}

// TestRecycledFabricLeavesItsFlows: the flow records of a fabric recycled at
// its run's end, with the selectors they embed, are what a fabric on another
// kernel takes for its own flows — which complete as they would on fresh
// records.
func TestRecycledFabricLeavesItsFlows(t *testing.T) {
	ctx := context.Background()
	run := func() (*Fabric, time.Duration) {
		k := simtime.NewVirtual()
		f := New(k, Config{Endpoints: 9, Bandwidth: 1e9})
		k.Run(func() {
			wg := simtime.NewWaitGroup(k)
			for src := range 8 {
				wg.Go("flow", func() { _ = f.Transfer(ctx, src, 8, int64(1+src)<<20) })
			}
			_ = wg.Wait(ctx)
		})
		return f, k.Now()
	}
	first, end := run()
	recycled := map[*flow]bool{}
	for _, fl := range first.free {
		recycled[fl] = true
	}
	first.Recycle()
	next, nextEnd := run()
	if nextEnd != end {
		t.Errorf("the run on recycled flows ended at %v, want %v", nextEnd, end)
	}
	for _, fl := range next.free {
		if !recycled[fl] {
			t.Fatal("a fabric built after a recycled one allocated a flow record")
		}
	}
	if len(next.free) != len(recycled) {
		t.Errorf("%d flow records in use, want the %d recycled", len(next.free), len(recycled))
	}
}
