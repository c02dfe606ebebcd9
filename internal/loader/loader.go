// Package loader defines the vocabulary shared by every data loader in this
// repository: the Loader interface the trainer consumes batches through, the
// Spec describing what to load, the Env bundling substrate handles, and the
// shuffled index source all loaders draw sample indices from.
package loader

import (
	"context"
	"errors"
	"io"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/dist"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/transform"
)

// Loader is the interface every data loader implements. Start launches the
// loader's background tasks; Next returns preprocessed batches for a given
// GPU consumer; Stop initiates shutdown (loaders also stop on their own
// after delivering their budget).
type Loader interface {
	// Start launches background tasks into the loader's Env.WG group.
	Start(ctx context.Context) error
	// Next returns the next batch for GPU consumer g, or io.EOF after the
	// configured budget has been delivered.
	Next(ctx context.Context, g int) (*data.Batch, error)
	// Stop requests shutdown; pending work is abandoned. Safe to call more
	// than once, and after natural end-of-data. After Stop, Next serves the
	// batches already built and then fails: it never parks.
	Stop()
}

// Instrumented is optionally implemented by loaders exposing internal
// gauges (queue occupancy, worker counts) to the metrics collector.
type Instrumented interface {
	RegisterMetrics(c *metrics.Collector)
}

// Spec describes the data a loader serves.
type Spec struct {
	Dataset   dataset.Dataset
	Pipeline  *transform.Pipeline
	BatchSize int
	// Epochs and Iterations bound the run: if Iterations > 0 it wins,
	// wrapping epochs as needed (Table 3 uses 1000 iterations for obj-det
	// and speech, 50 epochs for img-seg).
	Epochs     int
	Iterations int
	Seed       uint64
	// Skip fast-forwards the run past its first Skip batches: the index
	// source drops that many batches' worth of draws — preserving true
	// epoch numbering, shuffle order, and global sequence — and the
	// delivery budget shrinks to the remainder. This is the restore half
	// of checkpoint/resume: a resumed session consumes exactly the draws
	// its predecessor never delivered.
	Skip int
}

// BatchesPerEpoch returns the number of full batches per epoch (drop-last
// semantics, matching PyTorch's drop_last=True).
func (s Spec) BatchesPerEpoch() int {
	return s.Dataset.Len() / s.BatchSize
}

// TotalBatches returns the delivery budget: the configured bound minus the
// batches a Skip fast-forwards past.
func (s Spec) TotalBatches() int {
	total := s.Iterations
	if total <= 0 {
		e := s.Epochs
		if e <= 0 {
			e = 1
		}
		total = e * s.BatchesPerEpoch()
	}
	total -= s.Skip
	if total < 0 {
		total = 0
	}
	return total
}

// TotalSamples returns the number of sample draws the index source emits.
func (s Spec) TotalSamples() int { return s.TotalBatches() * s.BatchSize }

// Env bundles the simulated hardware a loader runs on.
type Env struct {
	RT    *simtime.Virtual
	CPU   *device.Device
	GPUs  []*gpu.GPU
	Store *storage.Store
	// WG tracks loader tasks; sessions wait on it during teardown.
	WG *simtime.WaitGroup
	// Pool recycles samples and batches through the data path (see
	// data.Pool). A nil pool degrades to plain allocation, so hand-built
	// environments keep working; sessions and the trainer always set one.
	Pool *data.Pool
	// Gov, when set, bounds the loader's preprocessing-worker pool from
	// outside — the hook multi-tenant clusters use to arbitrate CPU workers
	// fairly across co-located loaders. A nil share leaves the loader's
	// own bound (for MinatoLoader, the CPU core count) as the only one.
	Gov *Share
	// Mat, when set, is the cluster's materialized preprocessed-sample
	// cache: loaders that support it (MinatoLoader) check it before
	// dispatching a sample to the pipeline and materialize their outputs
	// into it, so repeat epochs and co-tenant sessions skip preprocessing
	// entirely. Nil disables the warm path.
	Mat *matcache.Cache
	// TraceNode stamps the spans the loader records into RT's recorder with
	// the owning rank in a multi-node run (0 on a single machine).
	TraceNode int32
}

// TraceTenant returns the tenant id spans from this environment carry: the
// store's registered tenant on a shared substrate, 0 otherwise.
func (e *Env) TraceTenant() int32 {
	if e.Store != nil {
		return int32(e.Store.Tenant)
	}
	return 0
}

// EOFIfClosed converts a queue-closed error into io.EOF, the contract of
// Loader.Next.
func EOFIfClosed(err error) error {
	if errors.Is(err, queue.ErrClosed) {
		return io.EOF
	}
	return err
}

// IndexItem is one sample draw from the shuffled index stream.
type IndexItem struct {
	Epoch int
	Index int
	Seq   int64 // global draw order
}

// IndexSource is the shuffled index stream as a pull cursor: Next hands out
// dataset indices in reshuffled epoch order, exactly TotalSamples of them,
// then reports queue.ErrClosed. Like the PyTorch sampler, indices are drawn
// in a predetermined random order (§2.1); what loaders do with that order is
// where they differ. Drawing costs no virtual time and Seq is draw order, so
// whichever task asks next gets the next item. Task-only state, like the
// queues it feeds.
type IndexSource struct {
	seed     uint64
	n        int   // dataset length
	perEpoch int64 // draws per epoch (drop-last)
	seq, end int64 // next draw's Seq, and one past the last

	epoch int   // the epoch perm is the order of
	perm  []int // nil until first drawn from
}

// NewIndexSource returns the index stream of spec. A Skip fast-forwards past
// the leading draws without emitting them: epoch numbering, shuffle order,
// and Seq stay those of the uninterrupted run, so a resumed session is
// indistinguishable downstream from one that delivered the skipped prefix
// itself.
func NewIndexSource(spec Spec) *IndexSource {
	is := new(IndexSource)
	is.Init(spec)
	return is
}

// Init readies a zero IndexSource embedded by value in its loader: what
// NewIndexSource does for one of its own.
func (is *IndexSource) Init(spec Spec) {
	*is = IndexSource{
		seed: spec.Seed, n: spec.Dataset.Len(),
		perEpoch: int64(spec.BatchesPerEpoch()) * int64(spec.BatchSize),
	}
	if is.perEpoch > 0 {
		is.seq = int64(spec.Skip) * int64(spec.BatchSize)
		is.end = is.seq + int64(spec.TotalSamples())
	}
}

// Next returns the next draw, or queue.ErrClosed once the budget has been
// handed out or Close was called.
func (is *IndexSource) Next() (IndexItem, error) {
	if is.seq >= is.end {
		return IndexItem{}, queue.ErrClosed
	}
	epoch := int(is.seq / is.perEpoch)
	i := is.seq - int64(epoch)*is.perEpoch
	if is.perm == nil || epoch != is.epoch {
		// Cached + read-only: every loader of a comparison run draws the
		// same epoch orders, so the shuffles are shared process-wide.
		is.epoch, is.perm = epoch, dist.PermutationCached(is.seed, uint64(epoch)+1000, is.n)
	}
	it := IndexItem{Epoch: epoch, Index: is.perm[i], Seq: is.seq}
	is.seq++
	return it, nil
}

// Close ends the stream: every later Next reports queue.ErrClosed.
func (is *IndexSource) Close() { is.end = is.seq }

// FillSample draws a pooled sample and fills its descriptor for an index
// item, without paying the storage read — the front half of LoadSample,
// used by cache fast paths that may skip the read entirely. The caller owns
// the returned sample.
func FillSample(env *Env, spec Spec, it IndexItem) *data.Sample {
	s := env.Pool.Get()
	dataset.Fill(spec.Dataset, it.Epoch, it.Index, s)
	s.OriginalOrder = it.Seq
	return s
}

// LoadSample materializes, reads, and stamps a sample for an index item.
// The sample instance is drawn from the environment's pool; the caller owns
// it and must hand it onward (into a batch) or release it back with
// env.Pool.Put. On error no sample is retained.
func LoadSample(ctx context.Context, env *Env, spec Spec, it IndexItem) (*data.Sample, error) {
	s := FillSample(env, spec, it)
	if err := env.Store.ReadSample(ctx, env.RT, s); err != nil {
		env.Pool.Put(s)
		return nil, err
	}
	return s, nil
}
