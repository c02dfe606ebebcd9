package cache

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

type tk int

func (a tk) Compare(b tk) int { return cmp.Compare(a, b) }

// op is one random step of TestQuickCacheCapacityInvariant.
type op struct {
	Kind, Tier, Tenant, Key uint8
	Size, Cost              uint16
}

// ledger is the traffic a cache's rows no longer show: counters of rows a
// reused id reset, and traffic by no tenant.
type ledger struct{ retired, none Stats }

// TestQuickCacheCapacityInvariant drives caches through random sequences of
// join, leave, get, complete, abort, put, recycle, a reader task (a get that
// parks as a follower and re-checks once woken), and a yield that lets the
// reader tasks run — each policy alone, and both as two tiers on one tenant
// table — and checks the accounting after every step:
//   - Used ≤ Capacity;
//   - Used is the sum of the resident entries' bytes, and the sum of the
//     tenants' Used plus the bytes filled by no tenant;
//   - the tenants' Hits, Misses, Fills and Evictions sum to the totals, with
//     the rows a reused id reset and the traffic by no tenant;
//   - every index node is exactly one of resident, in flight or handed off
//     (a resident node keeps the claim of a fill a Put overtook), and the
//     nodes in flight are the ones counted as such;
//   - Entries counts the resident nodes only, and the victim structure holds
//     each of them exactly once and no other node.
func TestQuickCacheCapacityInvariant(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policies []Policy
	}{
		{"lru", []Policy{LRU}},
		{"cost", []Policy{LeastCostPerByte}},
		{"two-tiers", []Policy{LRU, LeastCostPerByte}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(ops []op) bool {
				if err := runOps(tc.policies, ops); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func runOps(policies []Policy, ops []op) (err error) {
	const capacity = 1000
	rt := simtime.NewVirtual()
	pool := NewPool[tk](64, 4)
	tbl := new(Tenants)
	caches := make([]*Cache[tk], len(policies))
	for i, p := range policies {
		caches[i] = New[tk](capacity, p, pool, tbl, i)
	}
	ledgers := make([]ledger, len(caches))
	// get is a reader task's look, which runs at a yield, so it books its
	// traffic by no tenant itself. It reports whether the key is in flight.
	get := func(c *Cache[tk], l *ledger, who int, key tk) bool {
		before := c.Stats()
		_, hit, lead := c.look(who, key)
		if c.row(who) == nil {
			after := c.Stats()
			l.none.add(Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses})
		}
		return !hit && !lead
	}
	rt.Run(func() {
		defer func() { // let every reader run, wake the parked ones, let them exit
			_ = rt.Sleep(context.Background(), time.Nanosecond)
			for _, c := range caches {
				c.Recycle()
			}
			_ = rt.Sleep(context.Background(), time.Nanosecond)
		}()
		for step, o := range ops {
			tier := int(o.Tier) % len(caches)
			c, l := caches[tier], &ledgers[tier]
			who := int(o.Tenant)%(len(tbl.rows)+1) - 1 // -1 is no tenant
			// Few keys, so that claims, readers and landings meet on one.
			key, size := tk(o.Key%8), int64(o.Size%1200)
			kind := o.Kind % 9
			actor := who // the tenant traffic is attributed to
			if kind == 5 {
				actor = 0
			}
			nobody := c.row(actor) == nil
			before, orphans := c.Stats(), unattributed(c)
			_, wasResident := c.Peek(key)
			switch kind {
			case 0:
				rows := append([]tenant(nil), tbl.rows...)
				if id := tbl.Join(); id < len(rows) {
					for i := range ledgers {
						ledgers[i].retired.add(rows[id].tier[i])
					}
				}
			case 1:
				tbl.Leave(who)
			case 2:
				c.look(who, key)
			case 3:
				c.Complete(who, key, Entry{Bytes: size, Cost: time.Duration(o.Cost)})
			case 4:
				c.Abort(key)
			case 5:
				c.Put(key, size)
			case 6:
				c.Recycle()
			case 7:
				rt.Go("reader", func() {
					if get(c, l, who, key) {
						_ = c.await(context.Background(), key, rt)
						get(c, l, who, key)
					}
				})
			case 8:
				_ = rt.Sleep(context.Background(), time.Nanosecond)
			}
			if (kind == 2 || kind == 3) && nobody {
				after := c.Stats()
				l.none.add(Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
					Fills: after.Fills - before.Fills})
			}
			if kind != 6 {
				for key := range orphans {
					if _, ok := c.Peek(key); !ok {
						l.none.Evictions++ // an entry filled by no tenant was evicted
					}
				}
			}
			if _, resident := c.Peek(key); (kind == 3 || kind == 5) && nobody && !wasResident && !resident && size <= capacity {
				l.none.Evictions++ // a fill by no tenant was its own victim
			}
			for i, c := range caches {
				if err = checkAccounting(c, ledgers[i]); err != nil {
					err = fmt.Errorf("step %d (%+v), tier %d: %w", step, o, i, err)
					return
				}
			}
		}
	})
	return err
}

func (s *Stats) add(d Stats) {
	s.Used += d.Used
	s.Hits += d.Hits
	s.Misses += d.Misses
	s.Fills += d.Fills
	s.Evictions += d.Evictions
	s.Saved += d.Saved
}

func unattributed(c *Cache[tk]) map[tk]bool {
	keys := map[tk]bool{}
	for key, n := range c.index {
		if n.state&resident != 0 && n.tenant < 0 {
			keys[key] = true
		}
	}
	return keys
}

func checkAccounting(c *Cache[tk], l ledger) error {
	s := c.Stats()
	if s.Used < 0 || s.Used > s.Capacity {
		return fmt.Errorf("used %d outside [0, %d]", s.Used, s.Capacity)
	}
	var used, none, entries int64
	flights := 0
	for key, n := range c.index {
		if n.key != key {
			return fmt.Errorf("index maps %v to the entry of %v", key, n.key)
		}
		switch n.state {
		case resident, resident | flying:
			entries++
			used += n.Bytes
			if n.tenant < 0 {
				none += n.Bytes
			}
		case flying:
		case handed:
			if n.refs <= 0 {
				return fmt.Errorf("%v handed off to %d followers", key, n.refs)
			}
		default:
			return fmt.Errorf("%v is in state %b", key, n.state)
		}
		if n.state&flying != 0 {
			flights++
		} else if n.flight != nil {
			return fmt.Errorf("%v keeps a follower list with no fill in flight", key)
		}
	}
	if s.Entries != entries || c.flights != flights {
		return fmt.Errorf("%d entries and %d flights counted, %d and %d indexed", s.Entries, c.flights, entries, flights)
	}
	linked := int64(0)
	switch v := c.victims.(type) {
	case *lru[tk]:
		var last *node[tk]
		for n := v.head; n != nil && linked <= entries; n = n.next {
			if c.index[n.key] != n || n.state&resident == 0 {
				return fmt.Errorf("LRU list holds %v, which is not resident", n.key)
			}
			last = n
			linked++
		}
		if last != v.tail {
			return fmt.Errorf("LRU list does not end at its tail")
		}
	case *costHeap[tk]:
		for i, n := range *v {
			if int(n.idx) != i || c.index[n.key] != n || n.state&resident == 0 {
				return fmt.Errorf("heap slot %d holds %v (idx %d), which is not resident", i, n.key, n.idx)
			}
			if i > 0 && v.Less(i, (i-1)/2) {
				return fmt.Errorf("heap order broken at slot %d", i)
			}
		}
		linked = int64(v.Len())
	}
	if linked != entries {
		return fmt.Errorf("victim structure links %d entries, index holds %d resident", linked, entries)
	}
	sum := l.retired
	sum.add(l.none)
	for id := range c.tenants.rows {
		sum.add(*c.row(id))
	}
	if s.Used != used || s.Used != sum.Used+none {
		return fmt.Errorf("used %d, resident entries %d, tenants %d + no tenant %d", s.Used, used, sum.Used, none)
	}
	if sum.Hits != s.Hits || sum.Misses != s.Misses || sum.Fills != s.Fills || sum.Evictions != s.Evictions {
		return fmt.Errorf("tenant traffic %+v, totals %+v", sum, s)
	}
	return nil
}

// One tenant table under two tiers: a departed tenant's id is reused only
// once it holds no bytes in either, however empty the other tier is.
func TestJoinReusesOnlyEmptyRows(t *testing.T) {
	pool := NewPool[tk](64, 4)
	tbl := new(Tenants)
	page, mat := New[tk](100, LRU, pool, tbl, 0), New[tk](100, LeastCostPerByte, pool, tbl, 1)
	a := tbl.Join()
	mat.Complete(a, 1, Entry{Bytes: 10, Cost: time.Millisecond})
	tbl.Leave(a)
	if page.TenantStats(a).Used != 0 {
		t.Fatal("a holds page-cache bytes it never filled")
	}
	b := tbl.Join()
	if b == a {
		t.Fatalf("id %d reused while it held materialized bytes", a)
	}
	tbl.Leave(b)
	mat.Recycle()
	if id := tbl.Join(); id != a {
		t.Fatalf("drained id not reused: got %d, want %d", id, a)
	}
}

// TestRecycleHandsOverTheListsItsFollowersLeft: Recycle lands an orphaned
// claim and hands the cache's table to the pool, the follower lists
// included, before the followers it woke or that gave up resume: neither
// touches its list after the landing, so the pool may give it to another
// kernel's run at once. The woken follower then leads the orphaned key.
func TestRecycleHandsOverTheListsItsFollowersLeft(t *testing.T) {
	pool := NewPool[tk](64, 4)
	c := New[tk](100, LRU, pool, new(Tenants), 0)
	k := simtime.NewVirtual()
	k.Run(func() {
		if _, hit := c.GetOrBegin(0, 1, k); hit {
			t.Fatal("the first reader does not lead")
		}
		wg := simtime.NewWaitGroup(k)
		wg.Go("follower", func() {
			parked := false
			_, hit, err := c.GetOrWait(context.Background(), 0, 1, k, func(time.Duration) { parked = true })
			if !parked || hit || err != nil {
				t.Error("a second reader of a key in flight does not park, then lead the orphaned key")
				return
			}
			c.Complete(0, 1, Entry{Bytes: 1})
		})
		var scope simtime.CancelScope
		cancelled := scope.Begin(k, context.Background())
		wg.Go("quitter", func() {
			if _, _, err := c.GetOrWait(cancelled, 0, 1, k, nil); err == nil {
				t.Error("a follower whose wait was cancelled did not give up")
			}
		})
		_ = k.Sleep(context.Background(), time.Millisecond) // both park
		list := c.index[1].flight
		scope.Cancel()
		c.Recycle() // the leader died: its claim is orphaned
		if tb, ok := pool.tables.Get(); c.lists != nil || !ok || !slices.Contains(tb.lists, list) {
			t.Error("Recycle kept the list its followers left")
		} else {
			pool.tables.Put(tb)
		}
		_ = wg.Wait(context.Background())
	})
	c.Recycle()
	if c.lists != nil || c.index != nil || c.flights != 0 {
		t.Error("Recycle kept storage nobody uses")
	}
	if e, ok := c.Peek(1); ok || e.Bytes != 0 {
		t.Error("a recycled cache still holds an entry")
	}
}

// TestFollowersParkUntilTheLeaderLands: the first reader of a key leads,
// later ones park on one list and resume together, in arrival order, when
// the leader lands; a key that has landed can fly again; from the second
// flight on the node, the list and its selectors come from the ones before;
// and landing or aborting a key that is not in flight wakes nobody.
func TestFollowersParkUntilTheLeaderLands(t *testing.T) {
	ctx := context.Background()
	k := simtime.NewVirtual()
	c := New[tk](100, LRU, NewPool[tk](64, 4), new(Tenants), 0)
	k.Run(func() {
		var order []int
		wg := simtime.NewWaitGroup(k)
		flight := func() {
			if _, hit := c.GetOrBegin(0, 1, k); hit {
				t.Fatal("the first reader did not lead")
			}
			for i := 0; i < 4; i++ {
				wg.Go("follower", func() {
					parks := 0
					_, hit, err := c.GetOrWait(ctx, 0, 1, k, func(time.Duration) { parks++ })
					if parks != 1 || !hit || err != nil {
						t.Errorf("a follower parked %d times, then hit %v (%v): want once, then the entry handed to it", parks, hit, err)
					}
					order = append(order, i)
				})
			}
			_ = k.Sleep(ctx, time.Millisecond) // every follower parks
			if len(c.index) != 1 || c.flights != 1 || len(order) != 0 {
				t.Errorf("%d keys, %d in flight, %d followers through before the landing", len(c.index), c.flights, len(order))
			}
			// Too large to keep: handed to the four followers, then gone.
			c.Complete(0, 1, Entry{Bytes: 1000})
			if n := c.index[1]; n == nil || n.state != handed || n.refs != 4 {
				t.Errorf("the landing handed the entry to %+v, want 4 followers", n)
			}
			_ = wg.Wait(ctx)
			if len(order) != 4 || order[0] != 0 || order[3] != 3 || len(c.index) != 0 {
				t.Errorf("followers resumed in order %v with %d keys left", order, len(c.index))
			}
			order = order[:0]
		}
		flight()
		if c.flights != 0 || len(c.lists) != 1 {
			t.Errorf("%d keys in flight, %d idle lists after the landing, want 0, 1", c.flights, len(c.lists))
		}
		// Eight for the four spawns' closures, none for the flight itself.
		got := testing.AllocsPerRun(20, flight)
		t.Logf("%v allocations per repeated flight", got)
		if got > 8 {
			t.Errorf("%v allocations per repeated flight, want the spawns' 8", got)
		}
	})
	wakes := k.Stats().Wakes
	k.Run(func() {
		c.Abort(2)
		c.Complete(0, 3, Entry{Bytes: 1000})
		c.Put(4, 1)
		c.Complete(0, 4, Entry{Bytes: 1})
		c.Abort(4)
	})
	if woke := k.Stats().Wakes - wakes; woke != 0 || len(c.index) != 1 || c.flights != 0 {
		t.Errorf("landing keys not in flight woke %d, left %d keys, %d in flight", woke, len(c.index), c.flights)
	}
}

// TestLateWaitFollowsTheKeyNotAList: a follower's wait that comes late, in
// either tier's policy. The wait looks its key up, so:
//   - after its flight landed and the flight's list went to another key's
//     followers, it returns at once, without waking at that key's landing,
//     and the follower's next look hits its own key;
//   - after its key was dropped and flies again, it parks on the new flight
//     and wakes when that fill lands.
func TestLateWaitFollowsTheKeyNotAList(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
	}{{"lru", LRU}, {"cost", LeastCostPerByte}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			c := New[tk](100, tc.policy, NewPool[tk](64, 4), new(Tenants), 0)
			k := simtime.NewVirtual()
			k.Run(func() {
				wg := simtime.NewWaitGroup(k)
				follow := func(key tk) { wg.Go("follower", func() { _ = c.await(ctx, key, k) }) }
				// late is a wait taken after the follower's look; it reports
				// whether the wait has returned.
				late := func(key tk) *bool {
					back := new(bool)
					wg.Go("late", func() {
						if err := c.await(ctx, key, k); err != nil {
							t.Error(err)
						}
						*back = true
					})
					return back
				}

				// Landed, and its list gone to another key.
				if _, hit, lead := c.look(0, 1); hit || !lead {
					t.Fatal("the first reader of key 1 does not lead")
				}
				if _, hit, lead := c.look(0, 1); hit || lead {
					t.Fatal("a second reader of key 1 does not follow")
				}
				follow(1)
				_ = k.Sleep(ctx, time.Millisecond)
				list := c.index[1].flight
				c.Complete(0, 1, Entry{Bytes: 1, Cost: 1})
				c.look(0, 2)
				follow(2)
				_ = k.Sleep(ctx, time.Millisecond)
				if c.index[2].flight != list {
					t.Fatal("key 2's followers did not take the list key 1's flight left")
				}
				if back := late(1); k.Sleep(ctx, time.Millisecond) != nil || !*back {
					t.Error("a wait after key 1 landed parked, on the list that went to key 2")
				}
				if _, hit, _ := c.look(0, 1); !hit {
					t.Error("the late follower's next look missed key 1")
				}
				c.Complete(0, 2, Entry{Bytes: 1, Cost: 1})

				// Dropped, and flying again.
				c.look(0, 3)
				if _, hit, lead := c.look(0, 3); hit || lead {
					t.Fatal("a second reader of key 3 does not follow")
				}
				c.Abort(3)
				if _, ok := c.index[3]; ok {
					t.Fatal("an aborted key with no follower parked kept its node")
				}
				if _, _, lead := c.look(0, 3); !lead {
					t.Fatal("the next reader of the dropped key does not lead")
				}
				back := late(3)
				_ = k.Sleep(ctx, time.Millisecond)
				if *back {
					t.Error("a wait on a key flying again did not park on its new flight")
				}
				c.Complete(0, 3, Entry{Bytes: 1, Cost: 1})
				_ = k.Sleep(ctx, time.Millisecond)
				if !*back {
					t.Error("the new flight's landing did not wake the late follower")
				}
				if _, hit, _ := c.look(0, 3); !hit {
					t.Error("the late follower's next look missed key 3")
				}
				_ = wg.Wait(ctx)
			})
		})
	}
}
