package loader

import "testing"

// join joins fs with a new share.
func join(fs *FairShare, weight float64) *Share {
	s := new(Share)
	fs.Join(s, weight)
	return s
}

func TestFairShareQuotas(t *testing.T) {
	fs := NewFairShare(16)
	a := join(fs, 1)
	if q := a.WorkerQuota(); q != 16 {
		t.Fatalf("sole tenant quota = %d, want 16", q)
	}
	b := join(fs, 1)
	if qa, qb := a.WorkerQuota(), b.WorkerQuota(); qa != 8 || qb != 8 {
		t.Fatalf("equal-weight quotas = %d/%d, want 8/8", qa, qb)
	}
	c := join(fs, 2)
	if qa, qc := a.WorkerQuota(), c.WorkerQuota(); qa != 4 || qc != 8 {
		t.Fatalf("weighted quotas = %d/%d, want 4/8", qa, qc)
	}
	b.Leave()
	c.Leave()
	if q := a.WorkerQuota(); q != 16 {
		t.Fatalf("quota after siblings left = %d, want 16", q)
	}
	if n := len(fs.shares); n != 1 {
		t.Fatalf("tenants = %d, want 1", n)
	}
	// Leave is idempotent.
	b.Leave()
	if n, q := len(fs.shares), a.WorkerQuota(); n != 1 || q != 16 {
		t.Fatalf("after double-leave: %d tenants, quota %d, want 1 and 16", n, q)
	}
}

func TestFairShareFloorsAtOne(t *testing.T) {
	fs := NewFairShare(4)
	shares := make([]*Share, 16)
	for i := range shares {
		shares[i] = join(fs, 1)
	}
	for i, s := range shares {
		if q := s.WorkerQuota(); q != 1 {
			t.Fatalf("oversubscribed quota[%d] = %d, want 1", i, q)
		}
	}
	// Invalid weights are treated as weight 1 rather than corrupting the
	// arbitration.
	s := join(fs, -3)
	if q := s.WorkerQuota(); q < 1 {
		t.Fatalf("non-positive-weight quota = %d", q)
	}
}
