// Package matcache is a materialized cache of preprocessed samples: the
// transform-output tier that sits between the page cache and the workers in
// the cache hierarchy (disk → page cache → materialized cache → workers).
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
// The cache is the page cache's structure (internal/cache) with a different
// victim policy: fills are single-flighted the same way, so N tenants warming
// the same shard materialize each entry exactly once, and eviction is
// Seneca-style cost-aware — the victim is the entry with the least
// preprocessing time saved per byte, insertion order breaking ties. A changed
// pipeline simply misses, because its signature is part of the key; stale
// entries age out by their now-unearned density. An entry is a plain value
// (tensor bytes and pipeline cost), copied out of the live sample, so the
// cache never retains a pooled *data.Sample.
package matcache

import (
	"cmp"
	"time"

	"github.com/minatoloader/minato/internal/cache"
	"github.com/minatoloader/minato/internal/data"
)

// Key identifies one materialized entry: a stored object under a specific
// preprocessing pipeline (transform.Pipeline.Signature).
type Key struct {
	Obj data.Key
	Sig uint64
}

// Compare orders keys by object, then signature.
func (k Key) Compare(o Key) int { return cmp.Or(k.Obj.Compare(o.Obj), cmp.Compare(k.Sig, o.Sig)) }

// Entry is the materialized result of preprocessing one sample: the
// post-pipeline tensor size and the full-speed compute a hit saves.
type Entry = cache.Entry

// Cache is the materialized-sample cache.
type Cache = cache.Cache[Key]

// pool is the materialized caches' storage. Its bounds are the peak of the
// benchmark workloads: warm-tenants16's one shared cache holds 8 slabs.
var pool = cache.NewPool[Key](8, 1)

// New returns a cache of the given capacity in tensor bytes, on a new table.
func New(capacity int64) *Cache { return NewOn(capacity, new(cache.Tenants)) }

// NewOn returns a cache with the given capacity in simulated tensor bytes
// that keeps its counters as tier 1 of tenants — the page cache's table — so
// one Join registers a session with both tiers.
func NewOn(capacity int64, tenants *cache.Tenants) *Cache {
	return cache.New(capacity, cache.LeastCostPerByte, pool, tenants, 1)
}

// DefaultRestoreBandwidth is the memory bandwidth charged for restoring a
// materialized tensor to a worker (bytes/second). Restores are memcpy-class
// work, ~3 orders of magnitude cheaper than the preprocessing they replace.
const DefaultRestoreBandwidth = 10e9

// RestoreCost returns the CPU occupancy of restoring a materialized tensor
// of the given size to a worker.
func RestoreCost(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / DefaultRestoreBandwidth * float64(time.Second))
}
