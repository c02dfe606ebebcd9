package data

import (
	"runtime"
	"sync"
	"testing"
)

func TestPoolRecyclesSamples(t *testing.T) {
	p := NewPool()
	s := p.Get()
	s.Index = 7
	gen := s.Generation()
	p.Put(s)
	s2 := p.Get()
	if s2.Index != 0 || s2.NextTransform != 0 {
		t.Fatalf("recycled sample not reset: %+v", s2)
	}
	if s2 == s && s2.Generation() == gen {
		t.Fatal("recycled instance kept its generation")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	s := p.Get()
	p.Put(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Put(s)
}

func TestPoolUseAfterReleasePanics(t *testing.T) {
	p := NewPool()
	s := p.Get()
	gen := s.Generation()
	s.AssertOwned(gen) // valid while live
	p.Put(s)
	defer func() {
		if recover() == nil {
			t.Fatal("use after release did not panic")
		}
	}()
	s.AssertOwned(gen)
}

func TestBatchDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.GetBatch(4)
	b.Samples = append(b.Samples, p.Get())
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double batch release did not panic")
		}
	}()
	b.Release()
}

func TestBatchUseAfterReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.GetBatch(1)
	b.Samples = append(b.Samples, p.Get())
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes on a released batch did not panic")
		}
	}()
	_ = b.Bytes()
}

func TestUntrackedSamplesIgnoredByPut(t *testing.T) {
	p := NewPool()
	p.Put(&Sample{}) // plain literal: no lifecycle, no panic
	p.Put(nil)
	var nilPool *Pool
	s := nilPool.Get()
	if s == nil {
		t.Fatal("nil pool must still allocate")
	}
	nilPool.Put(s)
	if b := nilPool.GetBatch(3); cap(b.Samples) < 3 {
		t.Fatal("nil pool batch capacity")
	}
}

func TestCloneResetRecyclesOriginal(t *testing.T) {
	p := NewPool()
	s := p.Get()
	s.RawBytes, s.Bytes = 100, 55
	s.NextTransform, s.PreprocCost = 2, 42
	s.Index = 9
	c := p.CloneReset(s)
	if c.Bytes != 100 || c.NextTransform != 0 || c.PreprocCost != 0 || c.Index != 9 {
		t.Fatalf("CloneReset state: %+v", c)
	}
	// The original must have gone back to the pool: releasing it again is a
	// double release.
	defer func() {
		if recover() == nil {
			t.Fatal("original not released by CloneReset")
		}
	}()
	p.Put(s)
}

// TestPoolLifecycleHammer drives the put/recycle cycle from many goroutines
// under -race: samples flow get → hand off through a channel → release,
// with batches assembled and released concurrently. The correctness bar is
// that no panic fires and the pool's accounting balances — the generation
// counter must stay quiet for a well-behaved pipeline even at full
// contention.
func TestPoolLifecycleHammer(t *testing.T) {
	p := NewPool()
	const (
		producers = 8
		consumers = 8
		perProd   = 2000
		batchSize = 16
	)
	ch := make(chan *Sample, 64)
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perProd; j++ {
				s := p.Get()
				s.Index = id*perProd + j
				s.AssertOwned(s.Generation())
				ch <- s
			}
		}(i)
	}
	var consumed sync.WaitGroup
	for i := 0; i < consumers; i++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			b := p.GetBatch(batchSize)
			for s := range ch {
				s.AssertOwned(s.Generation())
				b.Samples = append(b.Samples, s)
				if len(b.Samples) == batchSize {
					b.Release()
					b = p.GetBatch(batchSize)
				}
			}
			b.Release()
		}()
	}
	wg.Wait()
	close(ch)
	consumed.Wait()
	st := p.Stats()
	if st.Gets-st.Puts != 0 {
		t.Fatalf("unbalanced lifecycle: %+v", st)
	}
	if st.Gets < producers*perProd {
		t.Fatalf("gets = %d, want ≥ %d", st.Gets, producers*perProd)
	}
	if st.Reuses == 0 {
		t.Fatal("hammer never recycled a sample")
	}
}

func TestReleaseIfOwnedGuardsStaleHolders(t *testing.T) {
	p := NewPool()
	b := p.GetBatch(2)
	b.Samples = append(b.Samples, p.Get())
	gen := b.Generation()
	if !b.ReleaseIfOwned(gen) {
		t.Fatal("owner's guarded release refused")
	}
	// The consumer released first (directly); a stale holder's guarded
	// release must now be a no-op, not a second free.
	if b.ReleaseIfOwned(gen) {
		t.Fatal("stale holder released an already-released batch")
	}
	// Recycled incarnation: generation advanced, stale guard still a no-op.
	b2 := p.GetBatch(2)
	if b2 == b && b2.ReleaseIfOwned(gen) {
		t.Fatal("stale holder released a recycled batch")
	}
	if b2.Generation() == gen && b2 == b {
		t.Fatal("recycling did not advance the batch generation")
	}
}

// TestPoolRecycleHandsSamplesToTheNextPool: what a pool's owner recycles at
// teardown is what the next pool hands out — every Get served by a sample
// released before, however many GCs ran — while a sample still held stays
// live and its late release is legal.
func TestPoolRecycleHandsSamplesToTheNextPool(t *testing.T) {
	const n = 100
	first := NewPool()
	held := first.Get()
	gen := held.Generation()
	batch := first.GetBatch(n)
	for range n {
		batch.Samples = append(batch.Samples, first.Get())
	}
	batch.Release()
	first.Recycle()
	runtime.GC()
	runtime.GC()

	next := NewPool()
	for range n {
		s := next.Get()
		if s == held {
			t.Fatal("a held sample was handed out again")
		}
	}
	if st := next.Stats(); st.Gets != n || st.Reuses != n {
		t.Errorf("next pool: %+v, want %d gets, all reused", st, n)
	}
	if next.GetBatch(n) != batch {
		t.Error("the recycled batch was not handed out again")
	}
	held.AssertOwned(gen)
	first.Put(held) // after the teardown: legal
	if st := first.Stats(); st.Gets != st.Puts {
		t.Errorf("first pool after the late release: %+v", st)
	}
}
