// Package loader defines the vocabulary shared by every data loader in this
// repository: the Loader interface the trainer consumes batches through, the
// Spec describing what to load, the Env bundling substrate handles, the
// shuffled index source all loaders draw sample indices from, and the sample
// path the baselines walk as wake steps (Path).
package loader

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"time"

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
// item, without paying the storage read (Path.Read pays it), for a path or a
// cache fast path that may skip the read entirely. The caller owns the
// returned sample.
func FillSample(env *Env, spec Spec, it IndexItem) *data.Sample {
	s := env.Pool.Get()
	dataset.Fill(spec.Dataset, it.Epoch, it.Index, s)
	s.OriginalOrder = it.Seq
	return s
}

// Path is the sample path of a loader task that parks in a wake step
// (simtime.Selector.WaitStep): the task parks on Sel at each wait the path
// comes to — an empty queue (Take), a device occupancy (Occupy) — and the
// wake that ends it walks the path on in the task's turn, with no coroutine
// switch. Path holds what the baselines walk alike, the waits and a sample's
// storage read (Read); a Walker makes each loader's own moves. A loader
// keeps its paths by value: a step allocates nothing per task or park.
type Path struct {
	Sel  simtime.Selector
	S    *data.Sample // the sample in hand
	Err  error        // what its read, or the last occupancy, ended with
	Done bool         // the path has ended, and its task exits

	w        Walker
	env      *Env
	ctx      context.Context // the run's, which the path parks under
	q        simtime.Source  // the queue Take armed Sel on
	dev      *device.Device  // the device occupied, with its entry
	e        *device.Entry
	t0       time.Duration // the disk read's start, while fetching
	fetching bool
	panicked any // a panic Step caught, for Run to raise
}

// Walker makes a path's moves: Walk makes the next one and reports whether
// the path goes on, false once it is Done or when a step (step true) comes
// to a move that parks elsewhere — a put into a full queue, a page-cache
// follower's wait, a remote fetch — which its task makes.
type Walker interface{ Walk(step bool) bool }

// Run is a path's task on env: it walks the path with w, parks in its wake
// step at each wait and makes the moves a step hands back, until the path is
// done. Cancellation of ctx ends an occupancy unfinished, with ctx's error in
// Err, as Device.Run does, and a wait in Take, the path.
func (p *Path) Run(ctx context.Context, env *Env, w Walker) {
	p.Sel.Bind(env.RT)
	for p.w, p.env, p.ctx = w, env, ctx; !p.Done; {
		if d, wait := p.walk(false); wait {
			err := p.Sel.WaitStep(ctx, d, p)
			if p.panicked != nil {
				panic(p.panicked)
			}
			if err != nil && p.e != nil {
				p.dev.Leave(p.e, false)
				p.e, p.Err = nil, err
			} else if err != nil {
				p.q.Disarm(&p.Sel)
				p.Done = true
			}
		}
	}
}

// Step implements simtime.Stepper: the walk on, in the task's turn. User
// code (a dataset's Fill, a transform's Cost) then runs on the kernel loop's
// stack, where a panic would crash the loop without naming the task: it ends
// the walk, and Run raises it again, with the stack it came from, on the
// task's.
func (p *Path) Step() (d time.Duration, wait bool) {
	defer func() {
		if v := recover(); v != nil {
			p.panicked, wait = fmt.Sprintf("%v\n\n%s", v, debug.Stack()), false
		}
	}()
	return p.walk(true)
}

// walk runs the path on until it waits, returning the park's deadline and
// true: an occupancy with work left, or a queue Take armed Sel on.
func (p *Path) walk(step bool) (time.Duration, bool) {
	for {
		if p.e != nil {
			if d, wait := p.dev.Settle(p.e); wait {
				return d, true
			}
			p.dev.Leave(p.e, true)
			p.e = nil
		}
		if p.q = nil; !p.w.Walk(step) || p.q != nil {
			return 0, p.q != nil
		}
	}
}

// Take takes the next item from q, or arms Sel on q for the path to wait
// (ok false); q closed and drained ends the path.
func Take[T any](p *Path, q *queue.Queue[T]) (v T, ok bool) {
	v, ok, err := q.TryGet()
	if p.Done = err != nil; !ok && !p.Done {
		p.Sel.Reset()
		q.Arm(&p.Sel, 0)
		p.q = q
	}
	return v, ok
}

// Read walks the read of the sample in hand on — Store.ReadSample's lookup,
// disk occupancy and Fetched, apart — and reports done once it is over, Err
// holding how it ended (a failed read's sample is back in the pool). A step
// hands its task a follower's wait behind a fill in flight or a remote fetch
// (ok false).
func (p *Path) Read(step bool) (done, ok bool) {
	ctx, st, rt, s := p.ctx, p.env.Store, p.env.RT, p.S
	switch {
	case !p.fetching && step && st.Cache != nil && st.Cache.Waits(s.Key),
		p.fetching && step && st.Remote != nil:
		return false, false
	case !p.fetching:
		read, err := st.Lookup(ctx, rt, s)
		if p.Err = err; !read {
			break
		}
		p.t0, p.fetching = rt.Now(), true
		if n := s.RawBytes; n > 0 {
			p.Occupy(st.Disk.Occupancy(n))
		}
		return false, true
	default:
		p.Err, p.fetching = st.Fetched(ctx, rt, s, p.t0, p.Err), false
	}
	if p.Err != nil {
		p.env.Pool.Put(s)
		p.S = nil
	}
	return true, true
}

// Occupy enters dev for work, parked on Sel: Device.Run's front half, whose
// waits the walk times. Once the run is cancelled it enters nothing, and Err
// is the cancellation.
func (p *Path) Occupy(dev *device.Device, work time.Duration) {
	if p.Err = p.ctx.Err(); p.Err == nil {
		p.dev, p.e = dev, dev.Enter(work, &p.Sel)
	}
}
