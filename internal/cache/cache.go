// Package cache is the one cache structure under both tiers of the cache
// hierarchy (disk → page cache → materialized cache → workers): the page
// cache of raw sample bytes (storage.PageCache) and the materialized cache of
// preprocessed tensors (matcache.Cache) are two instances of Cache that differ
// only in their victim Policy.
//
// A Cache is keyed, has a byte capacity, attributes its traffic to tenants and
// single-flights its fills: while one reader (the leader) fills a key, the
// cache parks concurrent readers of it inside GetOrWait until the fill lands,
// so co-running sessions over one dataset share a single warm-up pass.
//
// Tenants are rows of a table (Tenants) that two caches may share, one tier
// each, so a session registers once for both tiers and its id is reused only
// when it holds no bytes in either. Row 0, made by the first Join,
// is the implicit tenant that tenant-0 traffic (Put, a session of its own
// machine) lands on; an id outside the table credits no tenant at all.
//
// A Cache is plain data: used from the tasks of one kernel — goroutines
// outside it come in through simtime.Virtual.Run — or, like any plain value,
// by one goroutine with no kernel at all. Every operation is deterministic,
// eviction order and the order parked followers wake in included.
package cache

import (
	"context"
	"math"
	"slices"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// Key is what a cache key must be: comparable, and ordered, so that Recycle
// wakes orphaned claims in an order that is a function of the program.
type Key[K any] interface {
	comparable
	Compare(K) int
}

// Entry is one cached object: the bytes it occupies and the compute a hit on
// it saves (zero for raw bytes).
type Entry struct {
	Bytes int64
	Cost  time.Duration
}

// Stats is a snapshot of cache counters, whole-cache or per-tenant depending
// on where it came from. Capacity is always the whole cache's (the partition
// between tenants is soft); Entries is counted for the whole cache only.
// Saved is the compute that hits skipped.
type Stats struct {
	Capacity, Used int64
	Entries        int64
	Hits, Misses   int64
	Fills          int64
	Evictions      int64
	Saved          time.Duration
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Tenants is a tenant table: one row per tenant, holding that tenant's slice
// of every cache on the table. Task-only, like the caches.
type Tenants struct {
	rows []tenant
	live int // joined tenants; row 0 is not one
}

type tenant struct {
	live bool
	tier [2]Stats // its slices of the page cache (0) and the materialized cache (1)
}

// Join registers a tenant and returns its id. A departed tenant's row is
// reused only once it holds no bytes in any cache on the table, so a new
// tenant never inherits a stranger's residency; its counters start at zero.
func (t *Tenants) Join() int {
	if len(t.rows) == 0 {
		t.rows = make([]tenant, 1, 8) // row 0, the unattributed tenant
	}
	t.live++
	for id := 1; id < len(t.rows); id++ {
		if r := &t.rows[id]; !r.live && r.tier[0].Used == 0 && r.tier[1].Used == 0 {
			*r = tenant{live: true}
			return id
		}
	}
	t.rows = append(t.rows, tenant{live: true})
	return len(t.rows) - 1
}

// Leave deregisters a tenant. Its entries stay cached — they may still serve
// siblings — and its counters freeze until the row is reused.
func (t *Tenants) Leave(id int) {
	if id > 0 && id < len(t.rows) && t.rows[id].live {
		t.rows[id].live = false
		t.live--
	}
}

// Pool is what every cache of one key type shares across the process: free
// lists of node slabs and of tables (Go keeps a cleared map's storage, so a
// cache starts with its predecessor's index instead of growing one from
// scratch). They are simtime.Stocks, which the GC never empties: Recycle
// fills them, and cache traffic then allocates nothing in steady state,
// collections in between or not, up to the pool's bounds. What the stocks
// hold they hold for the life of the process, so the bounds are the peaks of
// the caches of that key type. Build one with NewPool.
type Pool[K Key[K]] struct {
	nodes  int // the nodes the kept slabs hold: the most entries a kept map may index
	slabs  *simtime.Stock[*slab[K]]
	tables *simtime.Stock[table[K]]
}

// NewPool returns an empty pool that keeps at most slabs node slabs (of
// slabSize nodes each) and tables tables: one cache at a time takes one. A
// map keeps the storage of the most entries it held, so one that indexes more
// nodes than the kept slabs hold is not kept: it would outweigh them.
func NewPool[K Key[K]](slabs, tables int) *Pool[K] {
	return &Pool[K]{
		nodes:  slabs * slabSize,
		slabs:  simtime.NewStock[*slab[K]](slabs),
		tables: simtime.NewStock[table[K]](tables),
	}
}

// slabSize is how many nodes a cache takes from its pool at a time.
const slabSize = 256

type slab[K Key[K]] struct {
	nodes [slabSize]node[K]
	prev  *slab[K] // the cache's slab handed out before this one
}

func (p *Pool[K]) slab() *slab[K] {
	if s, ok := p.slabs.Get(); ok {
		return s
	}
	return new(slab[K])
}

// table is a cache's keyed state: one node per key it holds, and the
// follower lists of landed flights, for the next keys that take followers.
type table[K Key[K]] struct {
	index map[K]*node[K]
	lists []*simtime.WaitList
}

// A node's state is resident, flying or handed, one of them; a resident node
// also keeps the flying bit of a fill a Put overtook, until that fill lands.
const (
	resident uint8 = 1 << iota // linked in the victim structure, counted in Used and Entries
	flying                     // a leader's fill is in flight; flight holds its followers
	handed                     // an entry too large to keep, held for refs followers
)

// node is one key's state. prev/next link a resident node in the LRU list
// (next also a freed node in the free list); density, seq and idx place it
// in the cost heap.
type node[K Key[K]] struct {
	key K
	Entry
	tenant     int32 // -1: filled by no tenant
	idx        int32
	refs       int32 // handed: the followers yet to redeem Entry
	state      uint8
	flight     *simtime.WaitList // flying: the followers, nil until the first
	prev, next *node[K]
	density    float64
	seq        uint64
}

// Cache is a keyed, byte-capacity, tenant-attributed, single-flighted cache
// whose victims its Policy picks. The zero value is not usable — construct
// with New.
type Cache[K Key[K]] struct {
	victims victims[K]
	pool    *Pool[K]
	total   Stats  // Capacity, Used and Entries are the cache's own
	seq     uint64 // insertions so far: the cost heap's tie-break
	flights int    // nodes with a fill in flight

	// The table comes from the pool when first written, and goes back to it
	// at Recycle.
	table[K]

	// Node storage: slabs from the pool, the last one's nodes handed out in
	// order (fresh counts them), and freed nodes, linked through next.
	slab  *slab[K]
	fresh int
	free  *node[K]

	tenants *Tenants
	tier    int
}

// New returns an empty cache of the given byte capacity that evicts by
// policy, drawing its storage from pool. It attributes traffic to tenants,
// keeping its counters in their rows' slice tier: two caches on one table, so
// that one Join registers a session with both, take different tiers.
func New[K Key[K]](capacity int64, policy Policy, pool *Pool[K], tenants *Tenants, tier int) *Cache[K] {
	var v victims[K] = new(lru[K])
	if policy == LeastCostPerByte {
		v = new(costHeap[K])
	}
	return &Cache[K]{
		victims: v,
		pool:    pool,
		total:   Stats{Capacity: capacity},
		tenants: tenants,
		tier:    tier,
	}
}

// Tenants returns the tenant table the cache attributes its traffic to.
func (c *Cache[K]) Tenants() *Tenants { return c.tenants }

// row is a tenant's slice of this cache, or nil for an id outside the table.
func (c *Cache[K]) row(id int) *Stats {
	if id < 0 || id >= len(c.tenants.rows) {
		return nil
	}
	return &c.tenants.rows[id].tier[c.tier]
}

// count applies f to the whole cache's counters and to the tenant's row.
func (c *Cache[K]) count(tenant int, f func(*Stats)) {
	f(&c.total)
	if r := c.row(tenant); r != nil {
		f(r)
	}
}

// hit counts a hit that saved the given compute: count's hot path, spelled
// out because a closure call would cost as much as the map lookup before it.
func (c *Cache[K]) hit(tenant int, saved time.Duration) {
	c.total.Hits++
	c.total.Saved += saved
	if r := c.row(tenant); r != nil {
		r.Hits++
		r.Saved += saved
	}
}

// Capacity returns the cache's current capacity in bytes, net of any
// ReserveCapacity carve-outs.
func (c *Cache[K]) Capacity() int64 { return c.total.Capacity }

// ReserveCapacity permanently carves n bytes out of the capacity for a second
// cache sharing the same simulated memory, so the two never double-count it.
// Entries are evicted in victim order until the contents fit. It returns the
// bytes granted, min(n, capacity), so a caller asking for more than the cache
// holds can detect the shortfall.
func (c *Cache[K]) ReserveCapacity(n int64) int64 {
	if n <= 0 {
		return 0
	}
	n = min(n, c.total.Capacity)
	c.total.Capacity -= n
	for c.total.Used > c.total.Capacity {
		c.evict(c.victims.victim(c, -1, math.Inf(1)))
	}
	return n
}

// GetOrWait is the single-flight read path: a cached key returns its entry as
// a hit; an uncached key with no fill in flight makes the caller the leader
// (hit false: fill it, then Complete or Abort); a key being filled parks the
// caller until the fill lands, calls waited (if not nil) with the instant the
// park began and looks again. A park ctx ends returns its error. Followers
// count a hit on re-check; only the leader pays a miss.
func (c *Cache[K]) GetOrWait(ctx context.Context, tenant int, key K, rt *simtime.Virtual, waited func(since time.Duration)) (Entry, bool, error) {
	for {
		if e, hit, lead := c.look(tenant, key); hit || lead {
			return e, hit, nil
		}
		since := rt.Now()
		if err := c.await(ctx, key, rt); err != nil {
			return Entry{}, false, err
		}
		if waited != nil {
			waited(since)
		}
	}
}

// Waits reports whether GetOrWait of key would park: its fill is in flight.
func (c *Cache[K]) Waits(key K) bool {
	n := c.index[key]
	return n != nil && n.state == flying
}

// GetOrBegin is GetOrWait with no context and no note of its parks.
func (c *Cache[K]) GetOrBegin(tenant int, key K, rt *simtime.Virtual) (Entry, bool) {
	e, hit, _ := c.GetOrWait(context.Background(), tenant, key, rt, nil)
	return e, hit
}

// look is one look at key: a hit, the lead of a new fill, or neither — a
// fill is in flight.
func (c *Cache[K]) look(tenant int, key K) (e Entry, hit, lead bool) {
	n := c.index[key]
	switch {
	case n == nil:
		n = c.add(key)
		n.state = flying
		c.flights++
		c.count(tenant, func(s *Stats) { s.Misses++ })
		return Entry{}, false, true
	case n.state&resident != 0:
		c.victims.touch(n)
		c.hit(tenant, n.Cost)
		return n.Entry, true, false
	case n.state == handed:
		e := n.Entry
		if n.refs--; n.refs == 0 {
			c.drop(n)
		}
		c.hit(tenant, e.Cost)
		return e, true, false
	}
	return Entry{}, false, false
}

// await parks the calling task behind key's fill in flight, on a list a
// landed flight left or a new one, until it lands or ctx is done. Keyed, a
// wait after the landing returns at once, and one after the key flew again
// follows the new fill.
func (c *Cache[K]) await(ctx context.Context, key K, rt *simtime.Virtual) error {
	n := c.index[key]
	if n == nil || n.state&flying == 0 {
		return nil
	}
	if n.flight == nil {
		if i := len(c.lists) - 1; i >= 0 {
			n.flight, c.lists = c.lists[i], c.lists[:i]
		} else {
			n.flight = new(simtime.WaitList)
		}
		n.flight.Init(rt)
	}
	return n.flight.Wait(ctx)
}

// Complete publishes a leader's fill, attributed to the leader's tenant, and
// releases the key's followers. An entry larger than the whole cache is not
// retained, but the followers still parked on this fill receive it as a hit:
// one reference each, none for a follower that gave up.
func (c *Cache[K]) Complete(tenant int, key K, e Entry) {
	c.count(tenant, func(s *Stats) { s.Fills++ })
	n := c.index[key]
	kept := c.insert(tenant, key, n, e)
	if n == nil || n.state&flying == 0 {
		return
	}
	followers := c.land(n)
	switch {
	case kept:
	case followers > 0:
		n.state, n.Entry, n.refs = handed, e, int32(followers)
	default:
		c.drop(n)
	}
}

// Abort releases a key's followers without publishing; the next reader
// becomes the new leader. A leader must Abort on every failure path, or its
// followers park until Recycle.
func (c *Cache[K]) Abort(key K) {
	if n := c.index[key]; n != nil && n.state&flying != 0 {
		if c.land(n); n.state == 0 {
			c.drop(n)
		}
	}
}

// land ends n's flight, wakes its followers in arrival order and reports how
// many accepted the wake: a follower that gave up its Wait is not one. The
// list goes back on the idle lists at once.
func (c *Cache[K]) land(n *node[K]) int {
	n.state &^= flying
	c.flights--
	l := n.flight
	if l == nil {
		return 0
	}
	n.flight = nil
	c.lists = append(c.lists, l)
	return l.WakeAll()
}

// Put inserts an object of the given size as the unattributed tenant,
// outside the single-flight protocol and without counting a fill.
func (c *Cache[K]) Put(key K, bytes int64) { c.insert(0, key, c.index[key], Entry{Bytes: bytes}) }

// Peek reports whether key is cached, without counting traffic or touching
// its recency.
func (c *Cache[K]) Peek(key K) (Entry, bool) {
	if n := c.index[key]; n != nil && n.state&resident != 0 {
		return n.Entry, true
	}
	return Entry{}, false
}

// insert makes an entry resident under key, whose node (nil: none) the
// caller looked up, evicting victims until it fits, and reports whether the
// key is resident. A resident key is only touched; an entry larger than the
// cache is not kept.
func (c *Cache[K]) insert(tenant int, key K, n *node[K], e Entry) bool {
	e.Bytes, e.Cost = max(e.Bytes, 0), max(e.Cost, 0)
	fits := e.Bytes <= c.total.Capacity
	if n != nil && n.state&resident != 0 {
		if fits {
			c.victims.touch(n)
		}
		return true
	}
	if !fits {
		return false
	}
	if c.row(tenant) == nil {
		tenant = -1 // an id outside the table carries no attribution
	}
	density := float64(e.Cost)
	if e.Bytes > 0 {
		density /= float64(e.Bytes)
	}
	for c.total.Used+e.Bytes > c.total.Capacity {
		v := c.victims.victim(c, tenant, density)
		if v == nil { // the entry itself is the victim
			c.count(tenant, func(s *Stats) { s.Evictions++ })
			return false
		}
		c.evict(v)
	}
	if n == nil {
		n = c.add(key)
	}
	c.seq++
	n.Entry, n.tenant, n.density, n.seq = e, int32(tenant), density, c.seq
	n.state, n.refs = n.state&flying|resident, 0
	c.victims.link(n)
	c.total.Entries++
	c.count(tenant, func(s *Stats) { s.Used += e.Bytes })
	return true
}

// evict takes a resident entry out, attributing the eviction to the tenant
// that filled it. A node whose fill a Put overtook stays, in flight.
func (c *Cache[K]) evict(n *node[K]) {
	c.victims.unlink(n)
	c.total.Entries--
	c.count(int(n.tenant), func(s *Stats) { s.Used, s.Evictions = s.Used-n.Bytes, s.Evictions+1 })
	if n.state &^= resident; n.state == 0 {
		c.drop(n)
	}
}

// add indexes a new node for key, taking a table from the pool first if the
// cache has none.
func (c *Cache[K]) add(key K) *node[K] {
	if c.index == nil {
		t, _ := c.pool.tables.Get()
		if t.index == nil {
			t.index = make(map[K]*node[K])
		}
		c.index, c.lists = t.index, t.lists
	}
	n := c.alloc()
	n.key = key
	c.index[key] = n
	return n
}

// drop takes a node that holds no state any more out of the index and frees
// it.
func (c *Cache[K]) drop(n *node[K]) {
	delete(c.index, n.key)
	*n = node[K]{next: c.free}
	c.free = n
}

func (c *Cache[K]) alloc() *node[K] {
	if n := c.free; n != nil {
		c.free, n.next = n.next, nil
		return n
	}
	if c.slab == nil || c.fresh == slabSize {
		s := c.pool.slab()
		c.slab, s.prev, c.fresh = s, c.slab, 0
	}
	c.fresh++
	return &c.slab.nodes[c.fresh-1]
}

// Recycle empties the cache and hands its node slabs and table to the pool.
// It is owned by whoever owns the cache's lifetime — a Cluster, or the owner
// of a run's testbed — never by one session, which may share the cache with
// live siblings. Traffic counters survive; residency is zeroed with the
// contents. Single-flight claims orphaned by leaders that died without
// settling are landed in key order, their followers woken to re-elect
// instead of parking forever. Recycle is idempotent, and the cache stays
// usable, drawing from the pool again.
func (c *Cache[K]) Recycle() {
	if c.flights > 0 {
		in := make([]*node[K], 0, c.flights)
		for _, n := range c.index {
			if n.state&flying != 0 {
				in = append(in, n)
			}
		}
		slices.SortFunc(in, func(a, b *node[K]) int { return a.key.Compare(b.key) })
		for _, n := range in {
			c.land(n)
		}
	}
	for s := c.slab; s != nil; {
		prev := s.prev
		*s = slab[K]{}
		c.pool.slabs.Put(s)
		s = prev
	}
	c.slab, c.fresh, c.free = nil, 0, nil
	c.victims.reset()
	c.total.Used, c.total.Entries = 0, 0
	for i := range c.tenants.rows {
		c.tenants.rows[i].tier[c.tier].Used = 0
	}
	t := table[K]{lists: c.lists} // a follower never touches its list after the landing
	if c.index != nil && len(c.index) <= c.pool.nodes {
		clear(c.index)
		t.index = c.index
	}
	c.index, c.lists = nil, nil
	if t.index != nil || t.lists != nil {
		c.pool.tables.Put(t)
	}
}

// Stats returns a snapshot of whole-cache counters; zero for a nil cache.
func (c *Cache[K]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.total
}

// TenantStats returns one tenant's slice of the cache: its traffic, and the
// bytes its fills hold resident. Zero for a nil cache.
func (c *Cache[K]) TenantStats(id int) (s Stats) {
	if c == nil {
		return s
	}
	if r := c.row(id); r != nil {
		s = *r
	}
	s.Capacity = c.total.Capacity
	return s
}
