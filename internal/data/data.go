// Package data defines the vocabulary types flowing through every loader:
// samples and batches. A Sample carries the observable properties a real
// data loader would see (sizes, keys) plus hidden per-sample features that
// drive the synthetic cost models — the loaders themselves never read the
// hidden features, mirroring the paper's observation (§3.2) that
// preprocessing cost is not predictable from observable attributes alone.
//
// Samples and batches have an explicit ownership lifecycle (see Pool): the
// loader that draws a sample owns it until the sample is delivered inside a
// batch, the consumer owns the batch until it calls Batch.Release, and
// Release recycles every sample for the next draw. The pool's generation
// counter turns use-after-release and double-release into loud panics
// instead of silent data corruption.
package data

import (
	"cmp"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Key identifies a stored object — a sample's bytes on storage, or a paired
// modality — without allocating: it is a comparable value of a constant
// namespace string and an index, so constructing one per sample draw costs
// nothing, unlike the formatted string keys it replaced.
type Key struct {
	// Space is the namespace: the dataset name, a replica namespace, or a
	// modality prefix ("librispeech/txt"). Implementations keep it constant
	// per dataset so Key construction never allocates.
	Space string
	// Index is the object's index within the space.
	Index int64
}

// IsZero reports whether k is the zero key (no object).
func (k Key) IsZero() bool { return k == Key{} }

// Compare orders keys by space, then index.
func (k Key) Compare(o Key) int {
	return cmp.Or(strings.Compare(k.Space, o.Space), cmp.Compare(k.Index, o.Index))
}

// String renders the key for diagnostics.
func (k Key) String() string { return fmt.Sprintf("%s/%d", k.Space, k.Index) }

// KeyOf builds a key. Convenience for tests and custom datasets.
func KeyOf(space string, index int) Key { return Key{Space: space, Index: int64(index)} }

// Features are hidden per-sample properties that determine preprocessing
// cost. They model input heterogeneity (resolution, sparsity, compression)
// and randomized augmentation triggers (§3.1). Loaders must not read them.
type Features struct {
	// Complexity in [0,1] drives cost variability uncorrelated with size.
	Complexity float64
	// AugmentDraw in [0,1) selects randomized-augmentation cost tiers.
	AugmentDraw float64
	// Heavy marks samples subject to the speech HeavyStep transformation.
	Heavy bool
}

// Sample is one training example moving through the pipeline.
type Sample struct {
	// Index identifies the sample within its dataset.
	Index int
	// Epoch is the training epoch this instance was drawn for.
	Epoch int
	// Key is the storage/cache key (stable across epochs).
	Key Key
	// RawBytes is the on-storage size; Bytes is the current in-memory size
	// and changes as transforms inflate or deflate the sample.
	RawBytes, Bytes int64
	// Features are hidden cost-model inputs (see Features).
	Features Features
	// Pair links paired modalities (e.g. audio–text); the zero key means
	// unpaired. Loaders must keep paired samples together (§6).
	Pair Key

	// NextTransform is the pipeline resume index: Algorithm 1 records the
	// transformation in progress when a sample times out, and background
	// workers resume (re-executing that transform) from here.
	NextTransform int

	// Bookkeeping stamped by loaders (virtual time).
	LoadedAt      time.Duration
	PreprocStart  time.Duration
	PreprocEnd    time.Duration
	PreprocCost   time.Duration // accumulated full-speed compute consumed
	MarkedSlow    bool          // flagged slow by a load balancer
	ResumedFrom   int           // transform index a slow sample resumed from
	TimesResumed  int
	DeliveredSeq  int64 // order of delivery to training
	OriginalOrder int64 // order the sampler drew the index in

	// Pool bookkeeping (see Pool). state and gen change under the pool's
	// lock; gen counts recycles so stale holders can be detected.
	state uint32
	gen   uint32
}

// Clone returns a freshly allocated copy of s with preprocessing state
// reset, as if freshly loaded. The clone is untracked by any pool; inside
// loader data paths prefer Pool.CloneReset, which recycles s.
func (s *Sample) Clone() *Sample {
	c := &Sample{}
	c.CopyFrom(s)
	c.Bytes = s.RawBytes
	c.NextTransform = 0
	c.PreprocCost = 0
	return c
}

// CopyFrom copies every payload field of src into s, preserving s's pool
// identity (ownership state and generation).
func (s *Sample) CopyFrom(src *Sample) {
	state, gen := s.state, s.gen
	*s = *src
	s.state, s.gen = state, gen
}

// String implements fmt.Stringer for diagnostics.
func (s *Sample) String() string {
	return fmt.Sprintf("sample{#%d ep%d %s raw=%dMB}", s.Index, s.Epoch, s.Key, s.RawBytes>>20)
}

// Batch is a set of preprocessed samples ready for training.
//
// Ownership: a batch assembled from a Pool must be returned to it with
// Release when the consumer is done with the samples; after Release the
// batch and every sample in it are recycled and must not be touched.
// Batches built without a pool (plain struct literals) ignore Release.
type Batch struct {
	Samples   []*Sample
	Seq       int64         // construction order
	CreatedAt time.Duration // when batch construction completed
	// Resident marks batches already in GPU memory: DALI preprocesses on
	// the device, and MinatoLoader prefetches batches over a CUDA stream
	// ahead of training (§4.3), so the trainer skips the H2D copy.
	Resident bool

	pool *Pool
	// state packs (generation << 1) | releasedBit into one atomic word, so
	// release claims are CAS transitions: a holder racing a concurrent
	// release-and-recycle can never free another incarnation's samples.
	// The generation survives recycling and only ever grows.
	state atomic.Uint64
}

const batchReleasedBit = 1

// Generation returns the batch's recycle count. Holders that might race a
// consumer's own Release (the session iterator releases the previously
// yielded batch on the next step) snapshot it at delivery and release with
// ReleaseIfOwned, so a batch the holder no longer owns is left alone
// instead of freeing another owner's samples.
func (b *Batch) Generation() uint32 { return uint32(b.state.Load() >> 1) }

func (b *Batch) isReleased() bool { return b.state.Load()&batchReleasedBit != 0 }

// ReleaseIfOwned releases the batch only when it is still the same live
// incarnation the holder snapshotted — nobody released (and possibly
// recycled) it since. It reports whether the release happened. The claim
// is a single CAS on the packed state, so it is safe even against a
// concurrent recycle of the batch by another owner.
func (b *Batch) ReleaseIfOwned(gen uint32) bool {
	if b == nil || !b.state.CompareAndSwap(uint64(gen)<<1, uint64(gen)<<1|batchReleasedBit) {
		return false
	}
	b.recycle()
	return true
}

// Release returns the batch and all its samples to the pool that assembled
// it. It panics on double release; it is a no-op for non-pooled batches and
// nil receivers, so consumers can call it unconditionally.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	for {
		cur := b.state.Load()
		if cur&batchReleasedBit != 0 {
			panic(fmt.Sprintf("data: batch %d released twice", b.Seq))
		}
		if b.state.CompareAndSwap(cur, cur|batchReleasedBit) {
			break
		}
	}
	b.recycle()
}

// recycle returns the samples and the batch to the pool. The caller has
// already claimed the released bit, so it runs exactly once per
// incarnation.
func (b *Batch) recycle() {
	p := b.pool
	if p == nil {
		return // non-pooled batch: the released bit still arms the checks
	}
	b.pool = nil
	p.putBatch(b)
}

// Bytes returns the total processed size of the batch.
func (b *Batch) Bytes() int64 {
	b.mustLive("Bytes")
	var n int64
	for _, s := range b.Samples {
		n += s.Bytes
	}
	return n
}

// Size returns the number of samples.
func (b *Batch) Size() int {
	b.mustLive("Size")
	return len(b.Samples)
}

// SlowCount returns how many samples in the batch were flagged slow.
func (b *Batch) SlowCount() int {
	b.mustLive("SlowCount")
	n := 0
	for _, s := range b.Samples {
		if s.MarkedSlow {
			n++
		}
	}
	return n
}

func (b *Batch) mustLive(op string) {
	if b.isReleased() {
		panic(fmt.Sprintf("data: batch %d used after Release (%s)", b.Seq, op))
	}
}
