package cache

import (
	"cmp"
	"context"
	"fmt"
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
// join, leave, get, complete, abort, put and recycle — each policy alone, and
// both as two tiers on one tenant table — and checks the accounting after
// every step:
//   - Used ≤ Capacity;
//   - Used is the sum of the resident entries' bytes, and the sum of the
//     tenants' Used plus the bytes filled by no tenant;
//   - the tenants' Hits, Misses, Fills and Evictions sum to the totals, with
//     the rows a reused id reset and the traffic by no tenant;
//   - every key is resident at most once: the victim structure holds each
//     indexed entry exactly once.
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
	rt.Run(func() {
		for step, o := range ops {
			tier := int(o.Tier) % len(caches)
			c, l := caches[tier], &ledgers[tier]
			who := int(o.Tenant)%(len(tbl.rows)+1) - 1 // -1 is no tenant
			key, size := tk(o.Key%32), int64(o.Size%1200)
			kind := o.Kind % 7
			actor := who // the tenant traffic is attributed to
			if kind == 5 {
				actor = 0
			}
			nobody := c.row(actor) == nil
			before, orphans := c.Stats(), unattributed(c)
			_, wasResident := c.index[key]
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
				c.GetOrBegin(who, key, rt)
			case 3:
				c.Complete(who, key, Entry{Bytes: size, Cost: time.Duration(o.Cost)})
			case 4:
				c.Abort(key)
			case 5:
				c.Put(key, size)
			case 6:
				c.Recycle()
			}
			if (kind == 2 || kind == 3) && nobody {
				after := c.Stats()
				l.none.add(Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
					Fills: after.Fills - before.Fills})
			}
			if kind != 6 {
				for key := range orphans {
					if _, ok := c.index[key]; !ok {
						l.none.Evictions++ // an entry filled by no tenant was evicted
					}
				}
			}
			if _, resident := c.index[key]; (kind == 3 || kind == 5) && nobody && !wasResident && !resident && size <= capacity {
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
		if n.tenant < 0 {
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
	var resident, none int64
	for key, n := range c.index {
		if n.key != key {
			return fmt.Errorf("index maps %v to the entry of %v", key, n.key)
		}
		resident += n.Bytes
		if n.tenant < 0 {
			none += n.Bytes
		}
	}
	linked := 0
	switch v := c.victims.(type) {
	case *lru[tk]:
		var last *node[tk]
		for n := v.head; n != nil && linked <= len(c.index); n = n.next {
			if c.index[n.key] != n {
				return fmt.Errorf("LRU list holds %v, which the index does not", n.key)
			}
			last = n
			linked++
		}
		if last != v.tail {
			return fmt.Errorf("LRU list does not end at its tail")
		}
	case *costHeap[tk]:
		for i, n := range *v {
			if n.idx != i || c.index[n.key] != n {
				return fmt.Errorf("heap slot %d holds %v (idx %d), which the index does not", i, n.key, n.idx)
			}
			if i > 0 && v.Less(i, (i-1)/2) {
				return fmt.Errorf("heap order broken at slot %d", i)
			}
		}
		linked = v.Len()
	}
	if linked != len(c.index) {
		return fmt.Errorf("victim structure links %d entries, index holds %d", linked, len(c.index))
	}
	sum := l.retired
	sum.add(l.none)
	for id := range c.tenants.rows {
		sum.add(*c.row(id))
	}
	if s.Used != resident || s.Used != sum.Used+none {
		return fmt.Errorf("used %d, resident entries %d, tenants %d + no tenant %d", s.Used, resident, sum.Used, none)
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

// TestRecycleKeepsTheTableItsFollowersResumeOn: Recycle hands the
// single-flight table to the pool only when no follower waits on it. A
// follower parked on an orphaned claim is woken by Recycle and resumes on its
// waiter afterwards, so that table stays with the cache — the pool may hand
// it to another kernel's run — and goes at the next Recycle, once nobody
// waits.
func TestRecycleKeepsTheTableItsFollowersResumeOn(t *testing.T) {
	pool := NewPool[tk](64, 4)
	c := New[tk](100, LRU, pool, new(Tenants), 0)
	k := simtime.NewVirtual()
	k.Run(func() {
		if _, hit, w := c.GetOrBegin(0, 1, k); hit || w != nil {
			t.Fatal("the first reader does not lead")
		}
		wg := simtime.NewWaitGroup(k)
		wg.Go("follower", func() {
			_, _, w := c.GetOrBegin(0, 1, k)
			if w == nil {
				t.Error("a second reader of a key in flight does not follow")
				return
			}
			_ = w.Wait(context.Background())
			if _, _, w := c.GetOrBegin(0, 1, k); w != nil {
				t.Error("the woken follower does not lead the orphaned key")
				return
			}
			c.Complete(0, 1, Entry{Bytes: 1})
		})
		_ = k.Sleep(context.Background(), time.Millisecond) // the follower parks
		table := c.inflight
		c.Recycle() // the leader died: its claim is orphaned
		if c.inflight != table {
			t.Error("Recycle handed over the table a woken follower resumes on")
		}
		_ = wg.Wait(context.Background())
	})
	c.Recycle()
	if c.inflight != nil || c.index != nil || c.handoff != nil {
		t.Error("Recycle kept storage nobody uses")
	}
	if e, ok := c.Peek(1); ok || e.Bytes != 0 {
		t.Error("a recycled cache still holds an entry")
	}
}
