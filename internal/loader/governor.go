package loader

// FairShare arbitrates a fixed worker capacity (typically the CPU core
// count) across tenants, weighted by priority. Each tenant joins with a
// weight and receives a quota proportional to weight/totalWeight, floored at
// one worker so every tenant always makes progress. Quotas are recomputed on
// every Join and Leave and re-read by the per-tenant Share handles at every
// scheduling decision, so loader schedulers observe rebalancing at their next
// tick. Like the rest of a kernel's state it is plain data, for its tasks.
type FairShare struct {
	capacity int
	total    float64
	shares   []*Share
}

// Share is one tenant's handle into a FairShare. Co-located loaders sharing
// one CPU device each hold one; the quota is re-read on every scheduling
// decision, so the owner can rebalance capacity while loaders run.
type Share struct {
	fs     *FairShare
	weight float64
	quota  int
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
// 1), with s — a zero share, or one that has left, which its caller keeps —
// as its handle. All quotas are rebalanced.
func (fs *FairShare) Join(s *Share, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	*s = Share{fs: fs, weight: weight}
	fs.shares = append(fs.shares, s)
	fs.total += weight
	fs.rebalance()
}

// Leave deregisters the share and rebalances the remaining tenants. Safe to
// call once per Join; further calls are no-ops.
func (s *Share) Leave() {
	fs := s.fs
	if fs == nil {
		return
	}
	for i, e := range fs.shares {
		if e == s {
			fs.shares = append(fs.shares[:i], fs.shares[i+1:]...)
			fs.total -= s.weight
			fs.rebalance()
			break
		}
	}
	s.fs = nil
}

// WorkerQuota returns the tenant's current fair share of the capacity, at
// least one.
func (s *Share) WorkerQuota() int { return max(s.quota, 1) }

// rebalance recomputes every share's quota.
func (fs *FairShare) rebalance() {
	if fs.total <= 0 {
		return
	}
	for _, s := range fs.shares {
		s.quota = max(int(float64(fs.capacity)*s.weight/fs.total), 1)
	}
}
