// Package pytorch implements the PyTorch DataLoader baseline (§2.1,
// Fig 1a):
//
//   - the sampler predetermines a random index order and groups consecutive
//     indices into batches;
//   - batch tasks are dispatched round-robin to worker processes, each with
//     a bounded task queue, and the number of outstanding (dispatched but
//     not yet consumed) batches is capped at workers × prefetch_factor,
//     exactly like _tasks_outstanding in the real implementation;
//   - a worker loads and preprocesses the samples of its batch serially;
//   - completed batches are delivered strictly in order, so one slow sample
//     delays its batch, and a slow batch delays every batch behind it —
//     head-of-line blocking (§3.3).
package pytorch

import (
	"cmp"
	"context"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/transform"
)

// Config holds the PyTorch DataLoader tuning knobs the paper sweeps.
type Config struct {
	// Workers is num_workers; the paper uses 12 (§5.1).
	Workers int
	// PrefetchFactor is batches prefetched per worker (default 2).
	PrefetchFactor int
	// ReorderPolicy optionally rearranges the pipeline per sample before
	// preprocessing; Pecan's AutoOrder plugs in here. Nil keeps Table 1
	// order. The policy must depend on the sample only through each
	// transform's volume classification (transform.Classify): results are
	// memoized per classification signature (transform.OrderCache), so the
	// policy runs once per distinct signature, not once per sample.
	ReorderPolicy func(ts []transform.Transform, s *data.Sample) []transform.Transform
}

// DefaultConfig returns the paper's baseline configuration (§5.1).
func DefaultConfig() Config {
	return Config{Workers: 12, PrefetchFactor: 2}
}

type batchTask struct {
	seq   int64
	items []loader.IndexItem
}

// Loader is the PyTorch DataLoader baseline.
type Loader struct {
	env  *loader.Env
	spec loader.Spec
	cfg  Config

	idx     *loader.IndexSource
	workers []worker
	// tokens caps outstanding batches (dispatched − consumed) at
	// workers × prefetch_factor; Next returns a token on consumption.
	tokens *queue.Queue[struct{}]
	out    *queue.Queue[*data.Batch]

	// spareItems holds the items slices of prepared batches for the
	// dispatcher to refill. Task-only, like everything here: the worker
	// that prepared a batch hands its slice back, the dispatcher takes it.
	spareItems [][]loader.IndexItem

	reorder    reorderBuffer
	orderCache transform.OrderCache
	stopped    bool
	ctx        context.Context // the run's, once Start has begun scope
	scope      simtime.CancelScope
}

// New returns a PyTorch DataLoader over the given spec.
func New(env *loader.Env, spec loader.Spec, cfg Config) *Loader {
	if cfg.Workers <= 0 {
		cfg.Workers = 12
	}
	if cfg.PrefetchFactor <= 0 {
		cfg.PrefetchFactor = 2
	}
	window := cfg.Workers * cfg.PrefetchFactor
	l := &Loader{
		env: env, spec: spec, cfg: cfg,
		idx:    loader.NewIndexSource(spec),
		tokens: queue.New[struct{}](env.RT, "pytorch-window", window),
		// The out queue only ever holds in-order ready batches; its
		// capacity never gates the pipeline (the token window does), so
		// the reorder flusher can always TryPut without parking.
		out: queue.New[*data.Batch](env.RT, "pytorch-out", spec.TotalBatches()+1),
	}
	l.reorder.pending = make(map[int64]*data.Batch)
	l.reorder.total = int64(spec.TotalBatches())
	l.reorder.out = l.out
	l.workers = make([]worker, cfg.Workers)
	for i := range l.workers {
		l.workers[i].tasks.Init(env.RT, "pytorch-tasks", cfg.PrefetchFactor)
	}
	return l
}

// Start implements loader.Loader.
func (l *Loader) Start(ctx context.Context) error {
	ctx = l.scope.Begin(l.env.RT, ctx)
	l.ctx = ctx

	// Fill the dispatch window.
	for i := 0; i < l.tokens.Cap(); i++ {
		if _, err := l.tokens.TryPut(struct{}{}); err != nil {
			return err
		}
	}

	// Dispatcher: group the index stream into batch tasks, round-robin to
	// workers, gated by the outstanding-batch window.
	l.env.WG.Go("pytorch-dispatch", func() {
		defer l.closeTasks()
		var seq int64
		for {
			if _, err := l.tokens.Get(ctx); err != nil {
				return
			}
			items := l.takeItems()
			for len(items) < l.spec.BatchSize {
				it, err := l.idx.Next()
				if err != nil {
					return // index stream closed: drop partial batch (drop_last)
				}
				items = append(items, it)
			}
			wq := &l.workers[seq%int64(len(l.workers))].tasks
			if err := wq.Put(ctx, batchTask{seq: seq, items: items}); err != nil {
				return
			}
			seq++
		}
	})

	for i := range l.workers {
		l.workers[i].l = l
		l.env.WG.Go("pytorch-worker", l.workers[i].run)
	}
	return nil
}

func (l *Loader) closeTasks() {
	for i := range l.workers {
		l.workers[i].tasks.Close()
	}
}

// takeItems returns an empty items slice with room for a batch: a spare
// one when a worker has handed one back.
func (l *Loader) takeItems() []loader.IndexItem {
	if n := len(l.spareItems); n > 0 {
		items := l.spareItems[n-1][:0]
		l.spareItems = l.spareItems[:n-1]
		return items
	}
	return make([]loader.IndexItem, 0, l.spec.BatchSize)
}

// worker is one worker process of Fig 1a: its task takes a batch task at a
// time from its own queue and loads and preprocesses the batch's samples
// serially.
type worker struct {
	loader.Path
	l     *Loader
	tasks queue.Queue[batchTask]

	at   int         // where the path goes on
	task batchTask   // the batch task in hand
	b    *data.Batch // its batch
	perr error       // what the sample's pipeline walk ended with
}

// The points of a worker's path (Walk).
const (
	atTake    = iota // take the next batch task, or wait for one
	atSample         // load the batch's next sample, or deliver the batch
	atRead           // read the sample, then start its pipeline on the CPU
	atPlanned        // the pipeline's CPU occupancy is done
)

func (w *worker) run() { w.Run(w.l.ctx, w.l.env, w) }

// Walk implements loader.Walker. A sample that fails to load or preprocess
// ends the worker, as an exception ends a PyTorch worker process.
func (w *worker) Walk(step bool) bool {
	l := w.l
	switch w.at {
	case atTake:
		if task, ok := loader.Take(&w.Path, &w.tasks); ok {
			w.task, w.at = task, atSample
			w.b = l.env.Pool.GetBatch(len(task.items))
		}
	case atSample:
		if n := len(w.b.Samples); n < len(w.task.items) {
			w.S, w.at = loader.FillSample(l.env, l.spec, w.task.items[n]), atRead
			break
		}
		w.b.Seq, w.b.CreatedAt = w.task.seq, l.env.RT.Now()
		l.spareItems = append(l.spareItems, w.task.items)
		l.reorder.deliver(w.b)
		w.b, w.at = nil, atTake
	case atRead:
		if done, ok := w.Read(step); !done {
			return ok
		} else if w.fail(w.Err) {
			return false
		}
		w.S.PreprocStart = l.env.RT.Now()
		work, err := l.pipeline(w.S).Plan(w.S, -1)
		if w.perr, w.Err, w.at = err, nil, atPlanned; work > 0 {
			w.Occupy(l.env.CPU, work)
		}
	case atPlanned:
		if w.fail(cmp.Or(w.Err, w.perr)) {
			return false
		}
		w.S.PreprocEnd = l.env.RT.Now()
		w.b.Samples = append(w.b.Samples, w.S)
		w.S, w.at = nil, atSample
	}
	return !w.Done
}

// fail ends the worker on a failed sample (err not nil) and reports whether
// it did: the sample (unless a failed read pooled it) and the batch go back
// to the pool.
func (w *worker) fail(err error) bool {
	if err != nil {
		w.l.env.Pool.Put(w.S)
		w.b.Release()
		w.l.spareItems = append(w.l.spareItems, w.task.items)
		w.S, w.b, w.Done = nil, nil, true
	}
	return err != nil
}

// pipeline returns the spec's pipeline for s, or its per-sample
// rearrangement, resolved through a cache keyed by the samples'
// classification signature, so the policy (and the pipeline construction
// behind it) runs once per distinct signature instead of once per sample.
func (l *Loader) pipeline(s *data.Sample) *transform.Pipeline {
	if l.cfg.ReorderPolicy == nil {
		return l.spec.Pipeline
	}
	return l.orderCache.Reordered(l.spec.Pipeline, s, l.cfg.ReorderPolicy)
}

// Next implements loader.Loader. All GPU consumers share the single
// in-order output queue (the paper's single-process multi-GPU setting).
func (l *Loader) Next(ctx context.Context, _ int) (*data.Batch, error) {
	b, err := l.out.Get(ctx)
	if err != nil {
		return nil, loader.EOFIfClosed(err)
	}
	// Consumption frees a slot in the dispatch window.
	_, _ = l.tokens.TryPut(struct{}{})
	return b, nil
}

// Stop implements loader.Loader.
func (l *Loader) Stop() {
	if l.stopped {
		return
	}
	l.stopped = true
	l.scope.Cancel()
	l.idx.Close()
	l.tokens.Close()
	l.closeTasks()
	l.out.Close()
}

// reorderBuffer delivers batches strictly by sequence number — the
// mechanism that turns one slow batch into a pipeline stall. Task-only.
type reorderBuffer struct {
	pending map[int64]*data.Batch
	next    int64
	total   int64
	sent    int64
	out     *queue.Queue[*data.Batch]
}

// deliver inserts a completed batch and flushes every consecutive ready
// batch to the output queue. The output queue is sized so TryPut never
// fails while open.
func (r *reorderBuffer) deliver(b *data.Batch) {
	r.pending[b.Seq] = b
	for {
		nb, ok := r.pending[r.next]
		if !ok {
			break
		}
		delete(r.pending, r.next)
		if ok, err := r.out.TryPut(nb); !ok || err != nil {
			nb.Release() // queue closed mid-shutdown: the batch is ours
			return
		}
		r.next++
		r.sent++
	}
	if r.sent >= r.total {
		r.out.Close()
	}
}
