package loader

import (
	"sync"
	"sync/atomic"
)

// FairShare arbitrates a fixed worker capacity (typically the CPU core
// count) across tenants, weighted by priority. Each tenant joins with a
// weight and receives a quota proportional to weight/totalWeight, floored at
// one worker so every tenant always makes progress. Quotas are recomputed on
// every Join and Leave and read lock-free by the per-tenant Share handles,
// so loader schedulers observe rebalancing at their next tick without
// synchronizing with the arbiter.
type FairShare struct {
	capacity int

	mu     sync.Mutex
	total  float64
	shares []*Share
}

// Share is one tenant's handle into a FairShare. Co-located loaders sharing
// one CPU device each hold one; the quota is re-read on every scheduling
// decision, so the owner can rebalance capacity while loaders run.
type Share struct {
	fs     *FairShare
	weight float64
	quota  atomic.Int64
}

// NewFairShare returns an arbiter over the given worker capacity. Capacity
// below one is clamped to one.
func NewFairShare(capacity int) *FairShare {
	if capacity < 1 {
		capacity = 1
	}
	return &FairShare{capacity: capacity}
}

// Capacity returns the total worker capacity being arbitrated.
func (fs *FairShare) Capacity() int { return fs.capacity }

// Join registers a tenant with the given weight (values ≤ 0 are treated as
// 1) and returns its share handle. All quotas are rebalanced.
func (fs *FairShare) Join(weight float64) *Share {
	if weight <= 0 {
		weight = 1
	}
	s := &Share{fs: fs, weight: weight}
	fs.mu.Lock()
	fs.shares = append(fs.shares, s)
	fs.total += weight
	fs.rebalanceLocked()
	fs.mu.Unlock()
	return s
}

// Leave deregisters the share and rebalances the remaining tenants. Safe to
// call once per Join; further calls are no-ops.
func (s *Share) Leave() {
	fs := s.fs
	if fs == nil {
		return
	}
	fs.mu.Lock()
	for i, e := range fs.shares {
		if e == s {
			fs.shares = append(fs.shares[:i], fs.shares[i+1:]...)
			fs.total -= s.weight
			fs.rebalanceLocked()
			break
		}
	}
	fs.mu.Unlock()
	s.fs = nil
}

// WorkerQuota returns the tenant's current fair share of the capacity, at
// least one.
func (s *Share) WorkerQuota() int {
	q := int(s.quota.Load())
	if q < 1 {
		return 1
	}
	return q
}

// Weight returns the weight the share joined with.
func (s *Share) Weight() float64 { return s.weight }

// Tenants returns the number of currently joined shares.
func (fs *FairShare) Tenants() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.shares)
}

// rebalanceLocked recomputes every share's quota. Called with fs.mu held.
func (fs *FairShare) rebalanceLocked() {
	if fs.total <= 0 {
		return
	}
	for _, s := range fs.shares {
		q := int(float64(fs.capacity) * s.weight / fs.total)
		if q < 1 {
			q = 1
		}
		s.quota.Store(int64(q))
	}
}
