package storage

import (
	"testing"

	"github.com/minatoloader/minato/internal/cache"
	"github.com/minatoloader/minato/internal/data"
)

func TestPageCacheTenantAttribution(t *testing.T) {
	c := NewPageCache(1000)
	a := c.Tenants().Join()
	b := c.Tenants().Join()
	if a == b || a == 0 || b == 0 {
		t.Fatalf("tenant ids %d/%d", a, b)
	}

	c.Complete(a, data.KeyOf("k", 1), cache.Entry{Bytes: 100})
	if !getAs(c, b, data.KeyOf("k", 1)) {
		t.Fatal("tenant b missed an entry tenant a inserted")
	}
	getAs(c, a, data.KeyOf("k", 2)) // a miss for a

	sa, sb := c.TenantStats(a), c.TenantStats(b)
	if sa.Hits != 0 || sa.Misses != 1 || sa.Used != 100 {
		t.Fatalf("tenant a stats = %+v", sa)
	}
	if sb.Hits != 1 || sb.Misses != 0 || sb.Used != 0 {
		t.Fatalf("tenant b stats = %+v", sb)
	}
	// The global view sums the traffic.
	if g := c.Stats(); g.Hits != 1 || g.Misses != 1 || g.Used != 100 {
		t.Fatalf("global stats = %+v", g)
	}
}

// TestPageCacheTenantPartition verifies the soft capacity partition: with
// two joined tenants, an over-share tenant's entries are evicted before an
// under-share sibling's, even when the sibling's entry is the LRU tail.
func TestPageCacheTenantPartition(t *testing.T) {
	c := NewPageCache(100)
	a := c.Tenants().Join()
	b := c.Tenants().Join()

	// b inserts first (so its entry sits at the LRU tail), well under its
	// 50-byte share; a then fills the rest of the cache past its share.
	c.Complete(b, data.KeyOf("b", 0), cache.Entry{Bytes: 20})
	for i := 0; i < 4; i++ {
		c.Complete(a, data.KeyOf("a", i), cache.Entry{Bytes: 20})
	}
	// Cache full (100 bytes): a holds 80 (over share), b 20 (under). The
	// next insertion by a must evict a's own LRU entry, not b's tail.
	c.Complete(a, data.KeyOf("a", 99), cache.Entry{Bytes: 20})
	if !getAs(c, b, data.KeyOf("b", 0)) {
		t.Fatal("under-share tenant's entry was evicted")
	}
	if getAs(c, a, data.KeyOf("a", 0)) {
		t.Fatal("over-share tenant's LRU entry survived")
	}
	sa := c.TenantStats(a)
	if sa.Evictions != 1 {
		t.Fatalf("tenant a evictions = %d, want 1", sa.Evictions)
	}
}

func TestPageCacheLeaveTenantReusesSlot(t *testing.T) {
	c := NewPageCache(1000)
	a := c.Tenants().Join()
	c.Complete(a, data.KeyOf("k", 1), cache.Entry{Bytes: 10})
	c.Tenants().Leave(a)
	// a's entry is still resident, so its slot cannot be reused yet.
	if id := c.Tenants().Join(); id == a {
		t.Fatalf("slot %d reused while its bytes were resident", a)
	}
	c.Recycle()
	if id := c.Tenants().Join(); id != a {
		t.Fatalf("drained slot not reused: got %d, want %d", id, a)
	}
}

// TestPageCacheRecycleIdempotent covers the cluster-owned teardown path:
// Recycle may run more than once (e.g. Cluster.Close after a redundant
// call) without corrupting the node pool or the cache.
func TestPageCacheRecycleIdempotent(t *testing.T) {
	c := NewPageCache(1000)
	a := c.Tenants().Join()
	c.Complete(a, data.KeyOf("k", 1), cache.Entry{Bytes: 10})
	c.Recycle()
	c.Recycle()
	if s := c.Stats(); s.Used != 0 {
		t.Fatalf("used = %d after recycle", s.Used)
	}
	if ts := c.TenantStats(a); ts.Used != 0 {
		t.Fatalf("tenant used = %d after recycle", ts.Used)
	}
	// Still usable.
	c.Put(data.KeyOf("k", 2), 10)
	if !get(c, data.KeyOf("k", 2)) {
		t.Fatal("cache unusable after double recycle")
	}
}

func TestStoreWithTenantRoutesTraffic(t *testing.T) {
	c := NewPageCache(1000)
	id := c.Tenants().Join()
	st := &Store{Cache: c}
	tenantStore := st.WithTenant(id)
	if st.Tenant != 0 {
		t.Fatal("WithTenant mutated the original store")
	}
	if tenantStore.Cache != c || tenantStore.Tenant != id {
		t.Fatalf("tenant store = %+v", tenantStore)
	}
}
