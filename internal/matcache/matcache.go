// Package matcache is a materialized cache of preprocessed samples: the
// transform-output layer that sits between the page cache and the workers
// in the cache hierarchy (disk → page cache → materialized cache → workers).
//
// MinatoLoader's thesis is that preprocessing, not storage, dominates input
// pipelines — so once a sample's pipeline has run, the biggest remaining win
// is to never run it again. The cache keys entries by (storage key, pipeline
// signature): epoch 1 materializes worker outputs as it goes, epoch 2+ and
// co-tenant sessions sharing the cluster hit the cache and skip both the raw
// read and the whole transform pipeline, paying only a memory-bandwidth
// restore. This is the FFCV model of persisting preprocessed tensors,
// scoped to a shared in-memory layer.
//
// Fills are single-flighted with the same leader/follower waiter protocol as
// storage.PageCache, so N tenants warming the same shard materialize each
// entry exactly once. Eviction is Seneca-style cost-aware: the victim is the
// entry with the least preprocessing-seconds saved per byte (the measured
// pipeline cost the entry's hits avoid, over the bytes it occupies), with
// insertion order as the deterministic tie-break. Invalidation is structural:
// the pipeline signature is part of the key, so a changed pipeline simply
// misses, and stale entries age out by their now-unearned density (Invalidate
// drops a signature's entries eagerly when the caller knows it is dead).
//
// Entries live in compact binary regions — fixed-width records packed into
// pooled chunks — standing in for the preprocessed tensor bytes a real
// system would persist; capacity accounting is in simulated tensor bytes.
// The cache never retains the pooled *data.Sample that produced an entry:
// fills copy the few fields that matter out of the live sample, so sample
// recycling (and the pool's generation-counter panics) stay sound.
package matcache

import (
	"encoding/binary"
	"sort"
	"sync"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/simtime"
)

// Key identifies one materialized entry: a stored object under a specific
// preprocessing pipeline (transform.Pipeline.Signature).
type Key struct {
	Obj data.Key
	Sig uint64
}

// Entry is the materialized result of preprocessing one sample: the
// post-pipeline tensor size and the full-speed compute a hit saves.
type Entry struct {
	Bytes int64
	Cost  time.Duration
}

// DefaultRestoreBandwidth is the memory bandwidth charged for restoring a
// materialized tensor to a worker (bytes/second). Restores are memcpy-class
// work, ~3 orders of magnitude cheaper than the preprocessing they replace.
const DefaultRestoreBandwidth = 10e9

// Record layout inside a region chunk: two little-endian 64-bit words
// (tensor bytes, pipeline cost in ns) per slot.
const (
	recordSize      = 16
	recordsPerChunk = 4096
)

// chunk is one pooled region: a packed record buffer plus the per-slot
// metadata (key, liveness, attribution) the index and evictor need.
type chunk struct {
	buf  [recordsPerChunk * recordSize]byte
	meta [recordsPerChunk]slotMeta
}

type slotMeta struct {
	key    Key
	seq    uint32 // insertion sequence; stale heap items carry an older seq
	tenant int32
	live   bool
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// heapItem is one candidate victim: density is preprocessing-ns saved per
// byte (lower = less valuable = evicted sooner), seq breaks ties toward the
// older entry and detects staleness after slot reuse.
type heapItem struct {
	density float64
	seq     uint32
	slot    int32
}

// tenantCounters is one tenant's slice of the cache accounting.
type tenantCounters struct {
	live                         bool
	hits, misses, fills, evicted int64
	used                         int64 // resident tensor bytes this tenant filled
	savedNs                      int64 // preprocessing ns this tenant's hits skipped
}

// Cache is the materialized-sample cache: plain data, used from the tasks of
// one kernel (goroutines outside it come in through simtime.Virtual.Run) or
// by one goroutine with no kernel at all. All operations are deterministic,
// including eviction order. The zero value is not usable — construct with New.
type Cache struct {
	capacity  int64
	used      int64
	restoreBW float64

	chunks []*chunk
	free   []int32 // recycled record slots, LIFO
	index  map[Key]int32
	heap   []heapItem // min-heap by (density, seq), lazy-deleted
	seq    uint32

	hits, misses, fills, evictions, invalidations int64
	savedNs                                       int64

	tenants []tenantCounters

	// inflight single-flights fills, exactly like the page cache's fetch
	// protocol: the leader materializes while followers park on waiters.
	inflight simtime.Flights[Key]

	// handoff holds completed entries too large to retain, reserved for the
	// followers parked on the fill that produced them: each woken follower
	// redeems one reference on its re-check, so single-flight holds even for
	// permanently-uncacheable keys instead of degenerating to one serial
	// re-fill per follower.
	handoff map[Key]*handoffEntry
}

type handoffEntry struct {
	e    Entry
	refs int
}

// New returns a cache with the given capacity in simulated tensor bytes and
// the default restore bandwidth.
func New(capacity int64) *Cache {
	return &Cache{
		capacity:  capacity,
		restoreBW: DefaultRestoreBandwidth,
		index:     make(map[Key]int32),
	}
}

// RestoreCost returns the CPU occupancy of restoring a materialized tensor
// of the given size to a worker.
func (c *Cache) RestoreCost(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / c.restoreBW * float64(time.Second))
}

// JoinTenant registers a tenant id for attribution. Ids are assigned by the
// cluster (shared with the page cache's tenant ids), so matcache takes the
// id rather than allocating one; rejoining a departed slot resets its
// counters.
func (c *Cache) JoinTenant(id int) {
	if id < 0 {
		return
	}
	for len(c.tenants) <= id {
		c.tenants = append(c.tenants, tenantCounters{})
	}
	if !c.tenants[id].live {
		used := c.tenants[id].used // resident entries survive tenant churn
		c.tenants[id] = tenantCounters{live: true, used: used}
	}
}

// LeaveTenant deregisters a tenant. Its entries stay resident — they keep
// serving siblings and future sessions — and its slot's counters freeze
// until the id is reused.
func (c *Cache) LeaveTenant(id int) {
	if id >= 0 && id < len(c.tenants) {
		c.tenants[id].live = false
	}
}

// GetOrBegin is the single-flight warm path: a cached key returns its entry
// as a hit; an uncached key with no fill in flight makes the caller the
// leader (hit=false, waiter=nil — run the pipeline, then Complete or Abort);
// an uncached key already being filled parks the caller as a follower
// (waiter non-nil — Wait, then call GetOrBegin again). Followers are
// attributed a hit on re-check; only the leader pays a miss.
func (c *Cache) GetOrBegin(tenant int, key Key, rt *simtime.Virtual) (Entry, bool, *simtime.Waiter) {
	if slot, ok := c.index[key]; ok {
		e := c.decode(slot)
		c.hit(tenant, e)
		return e, true, nil
	}
	if h, ok := c.handoff[key]; ok {
		h.refs--
		if h.refs <= 0 {
			delete(c.handoff, key)
		}
		c.hit(tenant, h.e)
		return h.e, true, nil
	}
	if w := c.inflight.Join(key, rt); w != nil {
		return Entry{}, false, w
	}
	c.misses++
	if tenant >= 0 && tenant < len(c.tenants) {
		c.tenants[tenant].misses++
	}
	return Entry{}, false, nil
}

// hit attributes one hit and the preprocessing time it saved.
func (c *Cache) hit(tenant int, e Entry) {
	c.hits++
	c.savedNs += int64(e.Cost)
	if tenant >= 0 && tenant < len(c.tenants) {
		c.tenants[tenant].hits++
		c.tenants[tenant].savedNs += int64(e.Cost)
	}
}

// Peek reports whether key is materialized, without counting a hit or
// touching single-flight state.
func (c *Cache) Peek(key Key) (Entry, bool) {
	slot, ok := c.index[key]
	if !ok {
		return Entry{}, false
	}
	return c.decode(slot), true
}

// Complete publishes a leader's materialized entry and releases the key's
// followers. The fill is attributed to the leader's tenant. Entries larger
// than the whole cache are not retained, but the key's parked followers
// still receive the completed entry as a hit on their re-check (via a
// per-follower handoff reservation), so such keys are filled once per
// co-arriving cohort, not once per follower.
func (c *Cache) Complete(tenant int, key Key, e Entry) {
	c.fills++
	if tenant >= 0 && tenant < len(c.tenants) {
		c.tenants[tenant].fills++
	}
	c.insert(tenant, key, e)
	followers := c.inflight.Land(key) // readied; none runs before this task parks
	if _, retained := c.index[key]; !retained && followers > 0 {
		if c.handoff == nil {
			c.handoff = make(map[Key]*handoffEntry)
		}
		c.handoff[key] = &handoffEntry{e: e, refs: followers}
	}
}

// Abort releases a key's followers without publishing; the next caller
// becomes the new leader. Leaders must Abort on every failure path
// (including panics) or followers would park forever.
func (c *Cache) Abort(key Key) { c.inflight.Land(key) }

// Invalidate eagerly drops every entry materialized under the given
// pipeline signature, returning how many were removed. Callers use it when
// a pipeline is known dead (signature-keyed misses already isolate changed
// pipelines; this just frees the bytes sooner than cost-aware aging would).
func (c *Cache) Invalidate(sig uint64) int {
	n := 0
	for key, slot := range c.index {
		if key.Sig != sig {
			continue
		}
		c.remove(key, slot, false)
		n++
	}
	for key := range c.handoff {
		if key.Sig == sig {
			delete(c.handoff, key)
		}
	}
	c.invalidations += int64(n)
	return n
}

// Recycle empties the cache and returns its region chunks to the
// process-wide pool. Owned by whoever owns the cache's lifetime (a Cluster),
// never an individual session. Traffic counters survive; residency is
// zeroed with the contents. Single-flight claims orphaned by sessions that
// died without settling are cleared too, their waiters woken so nobody
// parks forever on a fill that will never complete.
func (c *Cache) Recycle() {
	for _, ch := range c.chunks {
		*ch = chunk{}
		chunkPool.Put(ch)
	}
	c.chunks = nil
	c.free = c.free[:0]
	c.heap = c.heap[:0]
	c.used = 0
	for i := range c.tenants {
		c.tenants[i].used = 0
	}
	clear(c.index)
	clear(c.handoff)
	// Wake abandoned followers in key order so recycling stays deterministic
	// even with claims outstanding.
	keys := c.inflight.Keys()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Obj.Space != b.Obj.Space {
			return a.Obj.Space < b.Obj.Space
		}
		if a.Obj.Index != b.Obj.Index {
			return a.Obj.Index < b.Obj.Index
		}
		return a.Sig < b.Sig
	})
	for _, key := range keys {
		c.inflight.Land(key)
	}
}

// Stats is a snapshot of materialized-cache counters (whole-cache or
// per-tenant, depending on where it came from). Saved is the preprocessing
// compute that hits skipped — the cache's whole reason to exist.
type Stats struct {
	Capacity, Used int64
	Entries        int64
	Hits, Misses   int64
	Fills          int64
	Evictions      int64
	Invalidations  int64
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

// Stats returns a snapshot of whole-cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Capacity: c.capacity, Used: c.used, Entries: int64(len(c.index)),
		Hits: c.hits, Misses: c.misses, Fills: c.fills,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Saved: time.Duration(c.savedNs),
	}
}

// TenantStats returns one tenant's attribution: its hits, misses, fills,
// evictions-suffered, resident bytes it filled, and the preprocessing time
// its hits saved. Capacity is the whole cache's (the pool is shared).
func (c *Cache) TenantStats(id int) Stats {
	if id < 0 || id >= len(c.tenants) {
		return Stats{Capacity: c.capacity}
	}
	t := c.tenants[id]
	return Stats{
		Capacity: c.capacity, Used: t.used,
		Hits: t.hits, Misses: t.misses, Fills: t.fills,
		Evictions: t.evicted, Saved: time.Duration(t.savedNs),
	}
}

// --- internals ---

func (c *Cache) decode(slot int32) Entry {
	buf := c.chunks[slot/recordsPerChunk].buf[(slot%recordsPerChunk)*recordSize:]
	return Entry{
		Bytes: int64(binary.LittleEndian.Uint64(buf)),
		Cost:  time.Duration(binary.LittleEndian.Uint64(buf[8:])),
	}
}

func (c *Cache) insert(tenant int, key Key, e Entry) {
	if e.Bytes > c.capacity || c.capacity <= 0 {
		return
	}
	if _, ok := c.index[key]; ok {
		return // already materialized (re-led fill after an abort race)
	}
	if e.Bytes < 0 {
		e.Bytes = 0
	}
	if e.Cost < 0 {
		e.Cost = 0
	}
	slot := c.allocSlot()
	ch, i := c.chunks[slot/recordsPerChunk], slot%recordsPerChunk
	binary.LittleEndian.PutUint64(ch.buf[i*recordSize:], uint64(e.Bytes))
	binary.LittleEndian.PutUint64(ch.buf[i*recordSize+8:], uint64(e.Cost))
	c.seq++
	// Out-of-range ids (a fill completing after tenant-slot churn) carry no
	// attribution: -1 keeps the bytes out of some other tenant's counters.
	if tenant < 0 || tenant >= len(c.tenants) {
		tenant = -1
	}
	ch.meta[i] = slotMeta{key: key, seq: c.seq, tenant: int32(tenant), live: true}
	c.index[key] = slot
	c.used += e.Bytes
	if tenant >= 0 {
		c.tenants[tenant].used += e.Bytes
	}
	density := float64(e.Cost)
	if e.Bytes > 0 {
		density /= float64(e.Bytes)
	}
	c.heapPush(heapItem{density: density, seq: c.seq, slot: slot})
	for c.used > c.capacity {
		victim, ok := c.popVictim()
		if !ok {
			break
		}
		c.remove(victim.key, c.index[victim.key], true)
	}
}

// popVictim pops heap items until one still describes a live slot.
func (c *Cache) popVictim() (slotMeta, bool) {
	for len(c.heap) > 0 {
		it := c.heapPop()
		m := &c.chunks[it.slot/recordsPerChunk].meta[it.slot%recordsPerChunk]
		if m.live && m.seq == it.seq {
			return *m, true
		}
	}
	return slotMeta{}, false
}

// remove drops a live entry: frees its slot, returns its bytes, and —
// for cost-aware eviction — attributes the loss to the tenant that filled
// it. The stale heap item (if any) is lazily skipped later.
func (c *Cache) remove(key Key, slot int32, evicted bool) {
	m := &c.chunks[slot/recordsPerChunk].meta[slot%recordsPerChunk]
	e := c.decode(slot)
	c.used -= e.Bytes
	if vt := int(m.tenant); vt >= 0 && vt < len(c.tenants) {
		c.tenants[vt].used -= e.Bytes
		if evicted {
			c.tenants[vt].evicted++
		}
	}
	if evicted {
		c.evictions++
	}
	m.live = false
	delete(c.index, key)
	c.free = append(c.free, slot)
}

func (c *Cache) allocSlot() int32 {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	ci := int32(len(c.chunks))
	c.chunks = append(c.chunks, chunkPool.Get().(*chunk))
	// Hand out this chunk's slots in ascending order: push the free list in
	// reverse so the LIFO pops low indices first.
	base := ci * recordsPerChunk
	for i := int32(recordsPerChunk - 1); i >= 1; i-- {
		c.free = append(c.free, base+i)
	}
	return base
}

// heapPush/heapPop implement a plain binary min-heap ordered by (density,
// seq) — strictly deterministic victim order.
func (it heapItem) less(other heapItem) bool {
	if it.density != other.density {
		return it.density < other.density
	}
	return it.seq < other.seq
}

func (c *Cache) heapPush(it heapItem) {
	c.heap = append(c.heap, it)
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.heap[i].less(c.heap[parent]) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

func (c *Cache) heapPop() heapItem {
	top := c.heap[0]
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(c.heap) && c.heap[l].less(c.heap[small]) {
			small = l
		}
		if r < len(c.heap) && c.heap[r].less(c.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		c.heap[i], c.heap[small] = c.heap[small], c.heap[i]
		i = small
	}
	return top
}
