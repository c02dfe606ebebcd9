package data

import (
	"fmt"
	"sync"

	"github.com/minatoloader/minato/internal/simtime"
)

// Sample ownership states (Sample.state, changed under its pool's lock).
const (
	stateUntracked uint32 = iota // built outside any pool; lifecycle unchecked
	stateLive                    // owned by a pipeline stage
	stateFree                    // sitting in the pool awaiting reuse
)

// Pool recycles samples and batches through the data path so the steady
// state allocates nothing: the index stream draws epoch instances from the
// pool instead of the heap, and consumers return delivered batches with
// Batch.Release once trained on.
//
// Ownership protocol: Get hands out a live sample owned by the caller;
// ownership travels with the sample through queues and batches; Put (or
// Batch.Release, which Puts every sample) ends it. The pool recognizes
// misuse loudly: Put on a free sample panics (double release), and holders
// that cache Generation can detect recycling with AssertOwned
// (use-after-release). A nil *Pool is valid and degrades to plain heap
// allocation with no lifecycle checks.
//
// Pools are safe for concurrent use: each keeps its free samples and batches
// on its own free list, under one lock that also guards its counters and
// the samples' ownership states. An empty list refills from a process-wide
// stock a chunk at a time — a list a recycled pool left, or a fresh slab —
// never per Get, and the pool's owner hands its list to that stock with
// Recycle when it tears its run down. The GC never empties either, so a
// fresh Pool per session reaches steady-state reuse as soon as a run before
// it has recycled, and stays there.
type Pool struct {
	mu       sync.Mutex
	samples  []*Sample // free: stateFree, generation 0 until first released
	batches  []*Batch  // free, released
	gets     int64     // samples handed out
	reuses   int64     // subset of gets served by recycling
	puts     int64     // samples returned
	livePeak int64     // high-water mark of outstanding samples
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// chunk is how many fresh samples or batches a pool allocates, as one slab,
// when its free list and the stock are both empty.
const chunk = 64

// The stocks are the process-wide free lists pools recycle into and refill
// from. Each list is one recycled pool's, kept whole with its storage, so a
// pool that adopts one takes every sample on it without copying or growing
// a slice.
var (
	sampleLists = simtime.NewStock[[]*Sample](64)
	batchLists  = simtime.NewStock[[]*Batch](64)
)

// refill fills an empty free list: with a list from the stock, adopted
// whole unless the free list's own storage holds it, or else with a slab of
// fresh items, each made free by mark; p.mu held.
func refill[T any](free *[]*T, stock *simtime.Stock[[]*T], mark func(*T)) {
	list, _ := stock.Get()
	switch {
	case cap(*free) < len(list):
		*free = list
	case list != nil:
		*free = append(*free, list...)
	default:
		slab := make([]T, chunk)
		for i := range slab {
			mark(&slab[i])
			*free = append(*free, &slab[i])
		}
	}
}

// Get returns a zeroed sample owned by the caller. On a nil pool it simply
// allocates.
func (p *Pool) Get() *Sample {
	if p == nil {
		return &Sample{}
	}
	p.mu.Lock()
	if len(p.samples) == 0 {
		refill(&p.samples, sampleLists, func(s *Sample) { s.state = stateFree })
	}
	n := len(p.samples) - 1
	s := p.samples[n]
	p.samples[n] = nil
	p.samples = p.samples[:n]
	st, gen := s.state, s.gen
	s.state = stateLive
	if gen != 0 { // released at least once: recycled, not fresh
		p.reuses++
	}
	p.gets++
	p.livePeak = max(p.livePeak, p.gets-p.puts)
	p.mu.Unlock()
	if st != stateFree {
		panic(fmt.Sprintf("data: pool freelist held a sample in state %d (%v)", st, s))
	}
	*s = Sample{state: stateLive, gen: gen}
	return s
}

// free ends a live sample's ownership, reporting whether it belongs on a
// free list (samples built outside a pool do not) or, for a sample that is
// already free, the double release to panic with; p.mu held.
func free(s *Sample) (keep bool, double bool) {
	switch s.state {
	case stateUntracked:
		return false, false
	case stateLive:
		// gen advances with the state, so a holder that snapshotted the
		// old generation fails AssertOwned either way.
		s.state = stateFree
		s.gen++
		return true, false
	default:
		return false, true
	}
}

// Put returns a sample to the pool, ending the caller's ownership. Putting
// a sample that is already free panics — that is a double release, and the
// first releaser's recycled instance would otherwise be corrupted. Samples
// built outside a pool (state untracked) and nil samples are ignored, as is
// every Put on a nil pool.
func (p *Pool) Put(s *Sample) {
	if p == nil || s == nil {
		return
	}
	p.mu.Lock()
	keep, double := free(s)
	if keep {
		p.samples = append(p.samples, s)
		p.puts++
	}
	p.mu.Unlock()
	if double {
		panic(fmt.Sprintf("data: double release of %v (generation %d)", s, s.gen))
	}
}

// CloneReset returns a pooled copy of s with preprocessing state reset, as
// if freshly loaded, and releases s — the restart-from-scratch ablation's
// replacement for Clone, which leaked the original instance.
func (p *Pool) CloneReset(s *Sample) *Sample {
	c := p.Get()
	c.CopyFrom(s)
	c.Bytes = s.RawBytes
	c.NextTransform = 0
	c.PreprocCost = 0
	p.Put(s)
	return c
}

// Generation returns the sample's recycle count. A holder that must detect
// use-after-release snapshots it at acquisition and checks with AssertOwned.
func (s *Sample) Generation() uint32 { return s.gen }

// AssertOwned panics when the sample has been released (or released and
// recycled) since the holder snapshotted gen — the loud use-after-release
// check of the pool lifecycle.
func (s *Sample) AssertOwned(gen uint32) {
	if s.state != stateLive || s.gen != gen {
		panic(fmt.Sprintf(
			"data: use after release: sample %v is at generation %d/state %d, holder expected live generation %d",
			s, s.gen, s.state, gen))
	}
}

// GetBatch returns an empty batch bound to p whose Samples backing array
// has at least the given capacity. On a nil pool it allocates a plain,
// lifecycle-unchecked batch.
func (p *Pool) GetBatch(capacity int) *Batch {
	if p == nil {
		return &Batch{Samples: make([]*Sample, 0, capacity)}
	}
	p.mu.Lock()
	if len(p.batches) == 0 {
		refill(&p.batches, batchLists, func(*Batch) {})
	}
	n := len(p.batches) - 1
	b := p.batches[n]
	p.batches[n] = nil
	p.batches = p.batches[:n]
	p.mu.Unlock()
	samples := b.Samples
	if cap(samples) < capacity {
		samples = make([]*Sample, 0, capacity)
	}
	// Field-wise reset: the packed state is atomic and must transition to
	// "next generation, live" rather than be clobbered by a struct copy.
	b.Samples = samples[:0]
	b.Seq, b.CreatedAt, b.Resident = 0, 0, false
	b.pool = p
	b.state.Store(uint64(uint32(b.state.Load()>>1)+1) << 1)
	return b
}

// putBatch frees a released batch's samples and keeps them and the batch,
// with its backing array, on the free lists: one lock for the whole batch.
func (p *Pool) putBatch(b *Batch) {
	var doubled *Sample
	p.mu.Lock()
	for _, s := range b.Samples {
		if s == nil {
			continue
		}
		switch keep, double := free(s); {
		case keep:
			p.samples = append(p.samples, s)
			p.puts++
		case double && doubled == nil:
			doubled = s
		}
	}
	clear(b.Samples)
	b.Samples = b.Samples[:0]
	p.batches = append(p.batches, b)
	p.mu.Unlock()
	if doubled != nil {
		panic(fmt.Sprintf("data: double release of %v (generation %d)", doubled, doubled.gen))
	}
}

// Recycle hands the pool's free samples and batches to the process-wide
// stocks the next run's pools refill from, while they have room. The owner
// of the run calls it at teardown, once the run's tasks have exited. What a
// consumer still holds stays its own, and a late Put — the final batch
// released after the teardown — stays legal: the pool keeps working,
// growing a new free list.
func (p *Pool) Recycle() {
	if p == nil {
		return
	}
	p.mu.Lock()
	samples, batches := p.samples, p.batches
	p.samples, p.batches = nil, nil
	p.mu.Unlock()
	if len(samples) > 0 {
		sampleLists.Put(samples)
	}
	if len(batches) > 0 {
		batchLists.Put(batches)
	}
}

// PoolStats is a snapshot of pool activity.
type PoolStats struct {
	Gets, Reuses, Puts int64
	// LivePeak is the high-water mark of samples simultaneously outstanding
	// — the pool's answer to "how much memory does the steady state need".
	LivePeak int64
}

// Stats returns a snapshot of pool counters (zero for a nil pool).
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Gets: p.gets, Reuses: p.reuses, Puts: p.puts, LivePeak: p.livePeak}
}
