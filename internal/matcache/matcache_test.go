package matcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/cache"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
)

func key(i int, sig uint64) Key {
	return Key{Obj: data.Key{Space: "test", Index: int64(i)}, Sig: sig}
}

func TestFillAndHit(t *testing.T) {
	rt := simtime.NewVirtual()
	c := New(1 << 20)

	k := key(1, 42)
	if _, hit := c.GetOrBegin(0, k, rt); hit {
		t.Fatal("first access hit, want the lead")
	}
	c.Complete(0, k, Entry{Bytes: 1000, Cost: 5 * time.Millisecond})

	e, hit := c.GetOrBegin(0, k, rt)
	if !hit {
		t.Fatal("second access missed, want a hit")
	}
	if e.Bytes != 1000 || e.Cost != 5*time.Millisecond {
		t.Fatalf("entry = %+v, want {1000 5ms}", e)
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 || st.Entries != 1 || st.Used != 1000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Saved != 5*time.Millisecond {
		t.Fatalf("saved = %v, want 5ms", st.Saved)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	c := New(1 << 20)
	k := key(1, 1)
	if _, ok := c.Peek(k); ok {
		t.Fatal("peek on empty cache reported a hit")
	}
	c.Complete(0, k, Entry{Bytes: 10, Cost: time.Millisecond})
	e, ok := c.Peek(k)
	if !ok || e.Bytes != 10 {
		t.Fatalf("peek = %+v, %v", e, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("peek moved traffic counters: %+v", st)
	}
}

// Cost-aware eviction: the victim is the entry with the least
// preprocessing-seconds saved per byte, ties broken toward the older entry.
func TestCostAwareEviction(t *testing.T) {
	c := New(3000)
	// Three 1000-byte entries with distinct densities.
	c.Complete(0, key(1, 1), Entry{Bytes: 1000, Cost: 9 * time.Millisecond}) // density 9000 ns/B
	c.Complete(0, key(2, 1), Entry{Bytes: 1000, Cost: 1 * time.Millisecond}) // density 1000 ns/B — least valuable
	c.Complete(0, key(3, 1), Entry{Bytes: 1000, Cost: 5 * time.Millisecond}) // density 5000 ns/B
	// Fourth entry overflows capacity: key 2 must go first.
	c.Complete(0, key(4, 1), Entry{Bytes: 1000, Cost: 7 * time.Millisecond})
	if _, ok := c.Peek(key(2, 1)); ok {
		t.Fatal("lowest-density entry survived eviction")
	}
	for _, i := range []int{1, 3, 4} {
		if _, ok := c.Peek(key(i, 1)); !ok {
			t.Fatalf("entry %d was evicted, want key 2 only", i)
		}
	}
	// Fifth entry: key 3 (5ms) is now the least dense.
	c.Complete(0, key(5, 1), Entry{Bytes: 1000, Cost: 8 * time.Millisecond})
	if _, ok := c.Peek(key(3, 1)); ok {
		t.Fatal("second-lowest-density entry survived eviction")
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 3 || st.Used != 3000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionSeqTieBreak(t *testing.T) {
	c := New(2000)
	// Equal densities: insertion order decides, older goes first.
	c.Complete(0, key(1, 1), Entry{Bytes: 1000, Cost: 4 * time.Millisecond})
	c.Complete(0, key(2, 1), Entry{Bytes: 1000, Cost: 4 * time.Millisecond})
	c.Complete(0, key(3, 1), Entry{Bytes: 1000, Cost: 4 * time.Millisecond})
	if _, ok := c.Peek(key(1, 1)); ok {
		t.Fatal("older of two equal-density entries survived")
	}
	if _, ok := c.Peek(key(2, 1)); !ok {
		t.Fatal("newer equal-density entry was evicted")
	}
}

// Eviction order must be identical run to run — replay the same fill
// sequence twice and require the same survivors.
func TestEvictionDeterminism(t *testing.T) {
	run := func() []bool {
		c := New(10_000)
		for i := 0; i < 64; i++ {
			cost := time.Duration((i*7919)%13+1) * time.Millisecond
			c.Complete(0, key(i, 1), Entry{Bytes: int64(500 + (i*31)%700), Cost: cost})
		}
		alive := make([]bool, 64)
		for i := range alive {
			_, alive[i] = c.Peek(key(i, 1))
		}
		return alive
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction nondeterministic: key %d alive=%v then %v", i, a[i], b[i])
		}
	}
}

func TestOversizeEntryNotRetained(t *testing.T) {
	c := New(1000)
	c.Complete(0, key(1, 1), Entry{Bytes: 2000, Cost: time.Second})
	if _, ok := c.Peek(key(1, 1)); ok {
		t.Fatal("entry larger than the whole cache was retained")
	}
	if st := c.Stats(); st.Used != 0 || st.Entries != 0 {
		t.Fatalf("stats after oversize fill = %+v", st)
	}
}

// Single-flight under the virtual kernel: one leader fills, parked followers
// are woken and re-check into hits, with exactly one fill recorded.
func TestSingleFlightVirtual(t *testing.T) {
	rt := simtime.NewVirtual()
	c := New(1 << 20)
	k := key(7, 9)
	const followers = 4

	var fills, hits atomic.Int64
	rt.Run(func() {
		if _, hit := c.GetOrBegin(0, k, rt); hit {
			t.Error("main task should lead")
			return
		}
		for i := 0; i < followers; i++ {
			rt.Go("follower", func() {
				e, hit, err := c.GetOrWait(context.Background(), 0, k, rt, nil)
				switch {
				case err != nil:
					t.Errorf("wait: %v", err)
				case !hit:
					t.Error("follower became leader while fill in flight")
				case e.Cost != 3*time.Millisecond:
					t.Errorf("follower got %+v", e)
				default:
					hits.Add(1)
				}
			})
		}
		// Let every follower park before publishing.
		if err := rt.Sleep(context.Background(), time.Millisecond); err != nil {
			t.Errorf("sleep: %v", err)
		}
		fills.Add(1)
		c.Complete(0, k, Entry{Bytes: 100, Cost: 3 * time.Millisecond})
	})
	rt.Drain()
	if fills.Load() != 1 || hits.Load() != followers {
		t.Fatalf("fills=%d hits=%d, want 1/%d", fills.Load(), hits.Load(), followers)
	}
	st := c.Stats()
	if st.Fills != 1 || st.Misses != 1 || st.Hits != int64(followers) {
		t.Fatalf("stats = %+v", st)
	}
}

// An aborted fill re-elects a follower as the new leader instead of caching
// a failure or parking followers forever.
func TestAbortReelection(t *testing.T) {
	rt := simtime.NewVirtual()
	c := New(1 << 20)
	k := key(1, 1)
	var refilled atomic.Bool
	rt.Run(func() {
		if _, hit := c.GetOrBegin(-1, k, rt); hit {
			t.Error("expected leadership")
			return
		}
		rt.Go("follower", func() {
			_, hit, err := c.GetOrWait(context.Background(), -1, k, rt, nil)
			if err != nil {
				t.Errorf("wait: %v", err)
			}
			if !hit && err == nil {
				// Re-elected leader after the abort.
				refilled.Store(true)
				c.Complete(-1, k, Entry{Bytes: 1, Cost: time.Microsecond})
			}
		})
		if err := rt.Sleep(context.Background(), time.Millisecond); err != nil {
			t.Errorf("sleep: %v", err)
		}
		c.Abort(k)
	})
	rt.Drain()
	if !refilled.Load() {
		t.Fatal("follower was not re-elected leader after abort")
	}
	if _, ok := c.Peek(k); !ok {
		t.Fatal("re-led fill did not publish")
	}
}

// Hammer the single-flight protocol under -race the way a cluster's tenants
// do: one untracked goroutine per tenant, each entering the shared kernel on
// its own. Many tenants warming the same key space must produce exactly one
// fill per key.
func TestSingleFlightHammer(t *testing.T) {
	rt := simtime.NewVirtual()
	c := New(1 << 30)
	const (
		tenants = 8
		keys    = 32
	)
	for range tenants - 1 { // ids 1..7; 0 is the unattributed row
		c.Tenants().Join()
	}
	fills := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for id := 0; id < tenants; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rt.Run(func() {
				for i := 0; i < keys; i++ {
					k := key(i, 1)
					_, hit, err := c.GetOrWait(context.Background(), id, k, rt, nil)
					if err != nil {
						t.Errorf("wait: %v", err)
						return
					}
					if !hit {
						fills[i].Add(1)
						// The fill takes time: followers pile up behind it.
						_ = rt.Sleep(context.Background(), time.Millisecond)
						c.Complete(id, k, Entry{Bytes: 64, Cost: time.Millisecond})
					}
				}
			})
		}(id)
	}
	wg.Wait()
	for i := range fills {
		if n := fills[i].Load(); n != 1 {
			t.Fatalf("key %d filled %d times, want exactly 1", i, n)
		}
	}
	st := c.Stats()
	if st.Fills != keys || st.Misses != keys {
		t.Fatalf("stats = %+v, want %d fills/misses", st, keys)
	}
	if st.Hits != int64(tenants*keys-keys) {
		t.Fatalf("hits = %d, want %d", st.Hits, tenants*keys-keys)
	}
}

// Regression for the pool generation-counter contract: the cache copies
// values out of live samples, so entries survive sample recycling — and a
// holder that wrongly retains the pooled sample still trips AssertOwned.
func TestEntriesSurviveSampleRecycling(t *testing.T) {
	pool := data.NewPool()
	c := New(1 << 20)

	s := pool.Get()
	s.Key = data.Key{Space: "corpus", Index: 11}
	s.Bytes = 4096
	s.PreprocCost = 2 * time.Millisecond
	gen := s.Generation()

	k := Key{Obj: s.Key, Sig: 77}
	c.Complete(0, k, Entry{Bytes: s.Bytes, Cost: s.PreprocCost})

	// Recycle the sample and clobber its recycled instance: the entry must
	// be unaffected because the cache never retained the pointer.
	pool.Put(s)
	s2 := pool.Get()
	s2.Bytes = 1
	s2.PreprocCost = time.Hour
	defer pool.Put(s2)

	e, ok := c.Peek(k)
	if !ok || e.Bytes != 4096 || e.Cost != 2*time.Millisecond {
		t.Fatalf("entry after recycling = %+v, %v; want {4096 2ms}", e, ok)
	}

	// A buggy cache layer that retained s across Put must still hit the
	// pool's loud use-after-release check.
	defer func() {
		if recover() == nil {
			t.Fatal("AssertOwned did not panic for a sample retained across recycling")
		}
	}()
	s.AssertOwned(gen)
}

func TestTenantAttribution(t *testing.T) {
	rt := simtime.NewVirtual()
	c := New(1 << 20)
	if a, b := c.Tenants().Join(), c.Tenants().Join(); a != 1 || b != 2 {
		t.Fatalf("tenant ids %d/%d, want 1/2", a, b)
	}

	k := key(5, 3)
	if _, hit := c.GetOrBegin(1, k, rt); hit {
		t.Fatal("tenant 1 should lead")
	}
	c.Complete(1, k, Entry{Bytes: 500, Cost: 4 * time.Millisecond})
	if _, hit := c.GetOrBegin(2, k, rt); !hit {
		t.Fatal("tenant 2 should hit")
	}

	t1, t2 := c.TenantStats(1), c.TenantStats(2)
	if t1.Fills != 1 || t1.Misses != 1 || t1.Hits != 0 || t1.Used != 500 {
		t.Fatalf("tenant 1 = %+v", t1)
	}
	if t2.Fills != 0 || t2.Hits != 1 || t2.Saved != 4*time.Millisecond {
		t.Fatalf("tenant 2 = %+v", t2)
	}
	if out := c.TenantStats(9); out.Hits != 0 || out.Capacity != 1<<20 {
		t.Fatalf("out-of-range tenant = %+v", out)
	}
}

// A departing tenant's resident bytes survive it, and its id is not handed
// to a newcomer while they do: the newcomer starts with nothing resident, and
// the id is reused, with its counters reset, only once the bytes have left.
func TestTenantChurnKeepsResidency(t *testing.T) {
	rt := simtime.NewVirtual()
	c := New(1 << 20)
	a := c.Tenants().Join()
	if _, hit := c.GetOrBegin(a, key(1, 1), rt); hit {
		t.Fatal("expected leadership")
	}
	c.Complete(a, key(1, 1), Entry{Bytes: 300, Cost: time.Millisecond})
	c.Tenants().Leave(a)
	if st := c.TenantStats(a); st.Used != 300 {
		t.Fatalf("residency lost across churn: used = %d", st.Used)
	}
	b := c.Tenants().Join()
	if b == a {
		t.Fatalf("id %d reused while its bytes were resident", a)
	}
	if st := c.TenantStats(b); st.Used != 0 || st.Fills != 0 || st.Misses != 0 {
		t.Fatalf("newcomer inherited a departed tenant's slice: %+v", st)
	}
	c.Tenants().Leave(b)
	c.Recycle()
	if id := c.Tenants().Join(); id != a {
		t.Fatalf("drained id not reused: got %d, want %d", id, a)
	}
	if st := c.TenantStats(a); st != (cache.Stats{Capacity: 1 << 20}) {
		t.Fatalf("reused id kept its predecessor's counters: %+v", st)
	}
}

func TestRecycle(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 3; i++ {
		c.Complete(0, key(i, 1), Entry{Bytes: 100, Cost: time.Millisecond})
	}
	c.Recycle()
	st := c.Stats()
	if st.Used != 0 || st.Entries != 0 {
		t.Fatalf("stats after recycle = %+v", st)
	}
	if st.Fills != 3 {
		t.Fatalf("traffic counters did not survive recycle: %+v", st)
	}
	// The cache remains usable after recycling.
	c.Complete(0, key(9, 1), Entry{Bytes: 50, Cost: time.Millisecond})
	if _, ok := c.Peek(key(9, 1)); !ok {
		t.Fatal("fill after recycle did not publish")
	}
	c.Recycle()
}

func TestRestoreCost(t *testing.T) {
	if got := RestoreCost(0); got != 0 {
		t.Fatalf("restore cost of 0 bytes = %v", got)
	}
	if got := RestoreCost(-5); got != 0 {
		t.Fatalf("restore cost of negative bytes = %v", got)
	}
	// 10 GB/s default bandwidth: 1 GB restores in 100 ms.
	if got := RestoreCost(1e9); got != 100*time.Millisecond {
		t.Fatalf("restore cost of 1 GB = %v, want 100ms", got)
	}
}

// Slot reuse across many fill/evict cycles never corrupts entries or
// capacity accounting.
func TestSlotReuse(t *testing.T) {
	c := New(2000)
	for round := 0; round < 50; round++ {
		c.Complete(0, key(round, 1), Entry{Bytes: 1000, Cost: time.Duration(round+1) * time.Millisecond})
	}
	st := c.Stats()
	if st.Used > 2000 {
		t.Fatalf("capacity accounting drifted: used = %d", st.Used)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	// Rising costs mean the two newest (densest) fills survive.
	for _, i := range []int{48, 49} {
		e, ok := c.Peek(key(i, 1))
		if !ok || e.Cost != time.Duration(i+1)*time.Millisecond {
			t.Fatalf("entry %d = %+v, %v", i, e, ok)
		}
	}
}

// An entry too large to retain is still handed to the fill's parked
// followers: each woken follower redeems exactly one hit from the handoff,
// so single-flight holds for permanently-uncacheable keys instead of
// degenerating to one serial re-fill per follower.
func TestUncacheableEntryHandedToFollowers(t *testing.T) {
	rt := simtime.NewVirtual()
	c := New(1000)
	k := key(1, 1)
	const followers = 3
	var hits, refills atomic.Int64
	rt.Run(func() {
		if _, hit := c.GetOrBegin(-1, k, rt); hit {
			t.Error("expected leadership")
			return
		}
		for i := 0; i < followers; i++ {
			rt.Go("follower", func() {
				e, hit, err := c.GetOrWait(context.Background(), -1, k, rt, nil)
				switch {
				case err != nil:
					t.Errorf("wait: %v", err)
				case !hit:
					refills.Add(1)
					c.Complete(-1, k, Entry{Bytes: 2000, Cost: time.Second})
				case e.Bytes != 2000 || e.Cost != time.Second:
					t.Errorf("follower entry = %+v, want {2000 1s}", e)
				default:
					hits.Add(1)
				}
			})
		}
		// Let every follower park, then publish an entry bigger than the
		// whole cache.
		if err := rt.Sleep(context.Background(), time.Millisecond); err != nil {
			t.Errorf("sleep: %v", err)
		}
		c.Complete(-1, k, Entry{Bytes: 2000, Cost: time.Second})
	})
	rt.Drain()
	if refills.Load() != 0 {
		t.Fatalf("%d followers re-ran the fill, want 0", refills.Load())
	}
	if hits.Load() != followers {
		t.Fatalf("follower hits = %d, want %d", hits.Load(), followers)
	}
	if _, ok := c.Peek(k); ok {
		t.Fatal("uncacheable entry was retained")
	}
	// The handoff is consumed with its followers: a later caller is a plain
	// miss electing a new leader, not a phantom hit.
	if _, hit := c.GetOrBegin(-1, k, rt); hit {
		t.Fatal("later caller should miss once the handoff is redeemed")
	}
	c.Abort(k)
}

// TestCancelledFollowerLeavesNoPhantomHit: a follower that gives up its wait
// is not counted when the fill lands — whether it has left already or is
// still to resume from its cancellation — so an entry too large to retain is
// handed to the live follower alone, and the next unrelated reader of the
// key misses instead of redeeming the reference nobody claimed.
func TestCancelledFollowerLeavesNoPhantomHit(t *testing.T) {
	for _, left := range []bool{true, false} {
		t.Run(fmt.Sprintf("left=%v", left), func(t *testing.T) {
			rt := simtime.NewVirtual()
			c := New(1000)
			k := key(1, 1)
			var hits, refills atomic.Int64
			var gaveUp atomic.Bool
			rt.Run(func() {
				ctx := context.Background()
				if _, hit := c.GetOrBegin(-1, k, rt); hit {
					t.Error("expected leadership")
					return
				}
				var scope simtime.CancelScope
				cancelled := scope.Begin(rt, ctx)
				rt.Go("quitter", func() {
					_, _, err := c.GetOrWait(cancelled, -1, k, rt, nil)
					gaveUp.Store(err != nil)
				})
				rt.Go("follower", func() {
					_, hit, err := c.GetOrWait(ctx, -1, k, rt, nil)
					switch {
					case err != nil:
						t.Errorf("wait: %v", err)
					case hit:
						hits.Add(1)
					default:
						refills.Add(1)
						c.Abort(k)
					}
				})
				_ = rt.Sleep(ctx, time.Millisecond) // both followers park
				scope.Cancel()
				if left {
					_ = rt.Sleep(ctx, time.Millisecond) // the quitter leaves
				}
				c.Complete(-1, k, Entry{Bytes: 2000, Cost: time.Second})
				_ = rt.Sleep(ctx, time.Millisecond) // the follower redeems its hit
				if _, hit := c.GetOrBegin(-1, k, rt); hit {
					t.Error("a later reader hit: a phantom reference for the follower that gave up")
				}
				c.Abort(k)
			})
			rt.Drain()
			if !gaveUp.Load() || hits.Load() != 1 || refills.Load() != 0 {
				t.Fatalf("quitter gave up %v; follower hits %d, refills %d; want true, 1, 0", gaveUp.Load(), hits.Load(), refills.Load())
			}
		})
	}
}

// Recycle clears single-flight claims orphaned by a leader that died
// without settling, waking their waiters so followers re-elect instead of
// parking forever on a dead fill.
func TestRecycleClearsInflightClaims(t *testing.T) {
	rt := simtime.NewVirtual()
	c := New(1 << 20)
	k := key(1, 1)
	var refilled atomic.Bool
	rt.Run(func() {
		// An orphaned leader claim: taken, never settled.
		if _, hit := c.GetOrBegin(-1, k, rt); hit {
			t.Error("expected leadership")
			return
		}
		rt.Go("follower", func() {
			_, hit, err := c.GetOrWait(context.Background(), -1, k, rt, nil)
			if err != nil {
				t.Errorf("wait: %v", err)
			}
			if !hit && err == nil {
				refilled.Store(true)
				c.Complete(-1, k, Entry{Bytes: 1, Cost: time.Microsecond})
			}
		})
		if err := rt.Sleep(context.Background(), time.Millisecond); err != nil {
			t.Errorf("sleep: %v", err)
		}
		c.Recycle()
	})
	rt.Drain()
	if !refilled.Load() {
		t.Fatal("follower was not re-elected after Recycle cleared the claim")
	}
}

// A fill completing with an out-of-range tenant id (tenant-row churn between
// claim and completion) carries no attribution, in either tier, instead of
// crediting tenant 0 with a stranger's bytes; evicting it later charges no
// tenant either.
func TestOutOfRangeTenantNotFoldedIntoTenantZero(t *testing.T) {
	t.Run("materialized", func(t *testing.T) { outOfRangeFill(t, New(1000), key(1, 1), key(2, 1)) })
	t.Run("page", func(t *testing.T) {
		outOfRangeFill(t, storage.NewPageCache(1000), data.KeyOf("k", 1), data.KeyOf("k", 2))
	})
}

func outOfRangeFill[K cache.Key[K]](t *testing.T, c *cache.Cache[K], k1, k2 K) {
	a := c.Tenants().Join() // rows 0 and a exist; 99 is still outside the table
	c.Complete(99, k1, Entry{Bytes: 500, Cost: time.Millisecond})
	if st := c.TenantStats(0); st.Used != 0 || st.Fills != 0 {
		t.Fatalf("tenant 0 credited with an out-of-range fill: %+v", st)
	}
	if st := c.Stats(); st.Used != 500 || st.Fills != 1 {
		t.Fatalf("whole-cache stats = %+v", st)
	}
	// A denser entry by a joined tenant evicts the unattributed one under
	// either policy: LRU's tail, and the least cost per byte.
	c.Complete(a, k2, Entry{Bytes: 600, Cost: 2 * time.Millisecond})
	if _, ok := c.Peek(k1); ok {
		t.Fatal("the unattributed entry was not evicted")
	}
	if st := c.TenantStats(a); st.Used != 600 || st.Evictions != 0 {
		t.Fatalf("tenant %d charged for an unattributed eviction: %+v", a, st)
	}
	if st := c.TenantStats(0); st.Used != 0 || st.Evictions != 0 {
		t.Fatalf("tenant 0 charged for an unattributed eviction: %+v", st)
	}
	if st := c.Stats(); st.Used != 600 || st.Evictions != 1 {
		t.Fatalf("whole-cache stats after the eviction = %+v", st)
	}
}
