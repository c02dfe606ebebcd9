package netsim

import (
	"context"
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// TestStarParkBudgetAndEndState is the served shape in miniature: endpoint
// 0 sends a ~32 MiB frame to each of 64 clients and gets 64 bytes back, 16
// rounds each, on a 264-endpoint fabric — every large flow crosses one
// egress link, so every entry and exit changes every rate. The budgets: a
// Transfer makes two parks (latency, then the flow) in one coroutine round
// trip however often its rate moves — the latency wake's step enters the
// flow and parks the task again in its turn — and is retimed at most four
// times: a rate change re-anchors the egress group's integral and moves only
// its front's timer, where per-flow deadlines retimed every flow in flight
// (111,940 retimes). The exact counts pin every kernel event. The end state
// is the group integrals' (the per-flow anchors ended at the same instant
// with the same bytes); a link's busy time is the bytes it carried over its
// bandwidth.
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
	if st.Retimes > 4*transfers {
		t.Errorf("%d retimes for %d transfers, budget 4 each", st.Retimes, transfers)
	}
	// A latency park that wakes itself returns to its task, which then makes
	// the flow park itself: the 67 transfers whose flow park is no step.
	want := simtime.KernelStats{Spawns: 65, Parks: 4097, TimedParks: 3074, SelfWakes: 1091, Wakes: 4097, Retimes: 2044, Steps: 1981, Switches: 2069}
	if st != want {
		t.Errorf("kernel counts %+v, want %+v", st, want)
	}
	if now, moved := k.Now(), f.BytesMoved(); now != 1380390488 || moved != 34498084864 {
		t.Errorf("ended at %d ns with %d bytes moved, want 1380390488 and 34498084864", now, moved)
	}
	for _, c := range []struct {
		endpoint, dir int
		want          float64
	}{
		{0, 0, 1.3799207731199998},
		{0, 1, 2.6214399999999668e-06}, // 1024 × 64 B at 25 GB/s
		{5, 1, 0.021489172480000002},
	} {
		if got := f.LinkBusySeconds(c.endpoint, c.dir); got != c.want {
			t.Errorf("LinkBusySeconds(%d, %d) = %.17g, want %.17g", c.endpoint, c.dir, got, c.want)
		}
	}
}

// TestRecycledFabricLeavesItsFlows: the flow records of a fabric, which
// registers with its kernel, go at the kernel's Recycle, with the selectors
// they embed, to a fabric on another kernel, which takes them for its own
// flows — and those complete as they would on fresh records.
func TestRecycledFabricLeavesItsFlows(t *testing.T) {
	ctx := context.Background()
	run := func() (*simtime.Virtual, *Fabric) {
		k := simtime.NewVirtual()
		f := New(k, Config{Endpoints: 9, Bandwidth: 1e9})
		k.Run(func() {
			wg := simtime.NewWaitGroup(k)
			for src := range 8 {
				wg.Go("flow", func() { _ = f.Transfer(ctx, src, 8, int64(1+src)<<20) })
			}
			_ = wg.Wait(ctx)
		})
		return k, f
	}
	k, first := run()
	end := k.Now()
	recycled := map[*flow]bool{}
	for fl := first.free; fl != nil; fl = fl.next[2] {
		recycled[fl] = true
	}
	k.Recycle() // the fabric registered with it
	k, next := run()
	if nextEnd := k.Now(); nextEnd != end {
		t.Errorf("the run on recycled flows ended at %v, want %v", nextEnd, end)
	}
	n := 0
	for fl := next.free; fl != nil; fl = fl.next[2] {
		if n++; !recycled[fl] {
			t.Fatal("a fabric built after a recycled one allocated a flow record")
		}
	}
	if n != len(recycled) {
		t.Errorf("%d flow records in use, want the %d recycled", n, len(recycled))
	}
}

// TestWaterFillingPassesAndComponents pins what a reshare costs. Its flows
// get one bit-identical rate per bottleneck level, and it takes one pass per
// level, on a 256-flow star with 64 flows of return traffic (two levels) and
// on a fabric whose second level ties two links with residuals that round
// apart: endpoint 0 sends six flows, four of them to endpoint 1, which gets
// one more; endpoint 0 gets three. After the first level, bw/6, endpoint 1's
// ingress has 25e9 − 4·25e9/6 left for its last flow, 9.5e-7 B/s above the
// 25e9/3 of endpoint 0's ingress — no tie for an absolute tolerance. On 256
// disjoint pairs, a flow's entry and exit each visit only its own two links.
func TestWaterFillingPassesAndComponents(t *testing.T) {
	const flows, back = 256, 64
	ctx := context.Background()
	// levels reshares both of endpoint 0's components once its transfers
	// are in flight, and checks the rates and passes.
	levels := func(name string, endpoints int, transfers [][2]int, rates map[float64]int) {
		k := simtime.NewVirtual()
		k.Run(func() {
			f := New(k, Config{Endpoints: endpoints, Bandwidth: PaperBandwidth})
			wg := simtime.NewWaitGroup(k)
			for _, tr := range transfers {
				wg.Go("flow", func() { _ = f.Transfer(ctx, tr[0], tr[1], 1<<30) })
			}
			_ = k.Sleep(ctx, time.Millisecond)
			tick := f.tick
			f.SetBandwidth(0, PaperBandwidth)
			if passes := f.tick - tick - 1; passes != uint64(len(rates)) {
				t.Errorf("%s: a reshare took %d passes, want %d", name, passes, len(rates))
			}
			got := map[float64]int{}
			for fl := f.all.head; fl != nil; fl = fl.next[2] {
				got[f.groups[fl.grp].Rate()]++
			}
			if !maps.Equal(got, rates) {
				t.Errorf("%s: rates %v, want %v", name, got, rates)
			}
			_ = wg.Wait(ctx)
		})
	}
	var star [][2]int
	for c := 1; c <= flows; c++ {
		star = append(star, [2]int{0, c})
		if c <= back {
			star = append(star, [2]int{c, 0})
		}
	}
	levels("star", flows+1, star, map[float64]int{PaperBandwidth / flows: flows, PaperBandwidth / back: back})
	levels("residual tie", 9, [][2]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 2}, {0, 3}, {4, 1}, {5, 0}, {6, 0}, {7, 0}},
		map[float64]int{PaperBandwidth / 6: 6, PaperBandwidth / 3: 4})

	k := simtime.NewVirtual()
	k.Run(func() {
		f := New(k, Config{Endpoints: 2 * flows, Bandwidth: PaperBandwidth})
		wg := simtime.NewWaitGroup(k)
		for p := range flows - 1 {
			wg.Go("pair", func() { _ = f.Transfer(ctx, 2*p, 2*p+1, 1<<30+int64(p)) })
		}
		_ = k.Sleep(ctx, time.Millisecond)
		last := [2]int{2 * (2*flows - 2), 2*(2*flows-1) + 1}
		wg.Go("last", func() {
			_ = f.Transfer(ctx, 2*flows-2, 2*flows-1, 1<<20)
			if !slices.Equal(f.comp, last[:]) { // its exit's reshare
				t.Errorf("an exit visited links %v, want %v", f.comp, last)
			}
		})
		_ = k.Sleep(ctx, time.Nanosecond)
		if !slices.Equal(f.comp, last[:]) { // its entry's reshare
			t.Errorf("an entry visited links %v, want %v", f.comp, last)
		}
		_ = wg.Wait(ctx)
	})
}
