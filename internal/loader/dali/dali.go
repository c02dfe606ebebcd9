// Package dali implements the NVIDIA DALI baseline (§2.1, §3.5): raw data
// is loaded from storage on the CPU, but all preprocessing transforms
// execute on the GPU as kernels roughly 10× faster than their CPU
// counterparts (the paper's own calibration, §5.1). Preprocessing and
// training share each GPU's compute, so aggressive preprocessing interferes
// with training — Takeaway 5.
//
// The pipeline per GPU is:
//
//	reader (CPU, parallel I/O) → raw-batch queue (prefetch_queue_depth)
//	→ GPU preprocessing task → ready queue (prefetch_queue_depth) → Next
//
// exec_pipelined/exec_async correspond to the buffered queues and the
// asynchronous GPU preprocessing task. Buffered batches reserve GPU memory,
// so deeper prefetch queues raise memory pressure (§3.4).
//
// Each task walks its per-sample moves as a wake step (loader.Path): an I/O
// worker parks once while it loads sample after sample, the reader while it
// collects batch after batch, a GPU pipe while it preprocesses them.
package dali

import (
	"cmp"
	"context"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
)

// Config holds DALI's tuning knob.
type Config struct {
	// QueueDepth is prefetch_queue_depth (default 2, §5.1).
	QueueDepth int
}

// DefaultConfig matches the paper's setup.
func DefaultConfig() Config {
	return Config{QueueDepth: 2}
}

const (
	// speedup is the GPU-vs-CPU transform speed ratio (10, §5.1).
	speedup = 10
	// ioParallelism bounds concurrent sample loads per raw batch.
	ioParallelism = 16
)

// Loader is the DALI baseline.
type Loader struct {
	env  *loader.Env
	spec loader.Spec

	idx     *loader.IndexSource
	pipes   []gpuPipe // one per GPU
	ioTasks *queue.Queue[ioTask]
	ioDone  *queue.Queue[ioResult]
	io      [ioParallelism]ioWorker
	rd      reader
	// delivered counts the batches Next handed out; the one that reaches
	// budget stops the loader. Plain: only the loader's tasks deliver.
	delivered, budget int
	stopped           bool
	ctx               context.Context // the run's, once Start has begun scope
	scope             simtime.CancelScope
}

// ioTask is one sample load dispatched to the persistent IO worker pool.
type ioTask struct {
	item loader.IndexItem
	slot int
}

// ioResult reports a completed load back to the reader.
type ioResult struct {
	s    *data.Sample
	slot int
	err  error
}

// New returns a DALI loader over the given spec.
func New(env *loader.Env, spec loader.Spec, cfg Config) *Loader {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2
	}
	l := &Loader{
		env: env, spec: spec,
		idx:     loader.NewIndexSource(spec),
		ioTasks: queue.New[ioTask](env.RT, "dali-iotasks", ioParallelism),
		ioDone:  queue.New[ioResult](env.RT, "dali-iodone", spec.BatchSize),
		budget:  spec.TotalBatches(),
	}
	l.rd.l, l.rd.items = l, make([]loader.IndexItem, 0, spec.BatchSize)
	l.pipes = make([]gpuPipe, len(env.GPUs))
	for g := range l.pipes {
		p := &l.pipes[g]
		p.l, p.g = l, env.GPUs[g]
		p.raw.Init(env.RT, "dali-raw", cfg.QueueDepth)
		p.ready.Init(env.RT, "dali-ready", cfg.QueueDepth)
	}
	return l
}

// Start implements loader.Loader.
func (l *Loader) Start(ctx context.Context) error {
	ctx = l.scope.Begin(l.env.RT, ctx)
	l.ctx = ctx

	// Persistent IO pool: ioParallelism workers bound concurrent loads.
	for i := range l.io {
		l.io[i].l = l
		l.env.WG.Go("dali-io", l.io[i].run)
	}
	// Reader: raw batches in order, round-robin to the GPU pipelines.
	l.env.WG.Go("dali-reader", l.rd.run)
	// One GPU preprocessing pipeline per device (exec_async).
	for g := range l.pipes {
		l.env.WG.Go("dali-gpu-pipe", l.pipes[g].run)
	}
	return nil
}

// ioWorker is one slot of the persistent IO pool, which bounds concurrent
// loads at ioParallelism: its task takes, reads, ingests and reports load
// after load for the reader until the task queue closes.
type ioWorker struct {
	loader.Path
	l    *Loader
	at   int // where the path goes on
	slot int // the load's slot in its batch
}

// The points of an I/O worker's path (Walk).
const (
	ioTake = iota // take the next load, or wait for one
	ioRead        // read the sample, then ingest it on the CPU
	ioPut         // report the load to the reader
)

func (w *ioWorker) run() { w.Run(w.l.ctx, w.l.env, w) }

// Walk implements loader.Walker.
func (w *ioWorker) Walk(step bool) bool {
	l := w.l
	switch w.at {
	case ioTake:
		if t, ok := loader.Take(&w.Path, l.ioTasks); ok {
			w.S, w.slot, w.at = loader.FillSample(l.env, l.spec, t.item), t.slot, ioRead
		}
	case ioRead:
		if done, ok := w.Read(step); !done {
			return ok
		}
		if w.at = ioPut; w.Err == nil {
			// Host-side ingest (decode headers, pin buffers): small CPU
			// cost so DALI shows the paper's light CPU footprint.
			ingest := time.Millisecond +
				time.Duration(float64(w.S.RawBytes)/(1<<20)*0.2*float64(time.Millisecond))
			w.Occupy(l.env.CPU, ingest)
		}
	case ioPut: // a sample whose ingest failed goes to the pool with its batch
		if step && l.ioDone.Len() >= l.ioDone.Cap() {
			return false
		}
		if err := l.ioDone.Put(context.Background(), ioResult{s: w.S, slot: w.slot, err: w.Err}); err != nil {
			l.env.Pool.Put(w.S)
			w.Done = true
		}
		w.S, w.at = nil, ioTake
	}
	return !w.Done
}

// reader is the reader task: it draws a batch's items, dispatches their
// loads to the IO pool, collects the results into a raw batch and hands it
// to its GPU pipe, batch after batch. Err holds a batch's first failed
// dispatch or load.
type reader struct {
	loader.Path
	l     *Loader
	at    int
	seq   int64
	items []loader.IndexItem // the batch's draws, copied into the loads
	b     *data.Batch        // the raw batch the loads fill
	sent  int                // loads dispatched
	got   int                // and reported
}

// The points of the reader's path (Walk).
const (
	rdDraw     = iota // draw the next batch's items
	rdDispatch        // dispatch their loads to the IO pool
	rdCollect         // take the loads' results
	rdHand            // hand the raw batch to its GPU pipe
)

func (r *reader) run() {
	r.Run(r.l.ctx, r.l.env, r)
	r.b.Release() // one the reader could not fill or hand over
	r.l.ioTasks.Close()
	for i := range r.l.pipes {
		r.l.pipes[i].raw.Close()
	}
}

// Walk implements loader.Walker. A failed load, or a shutdown, ends the
// reader once the dispatched loads are in.
func (r *reader) Walk(step bool) bool {
	l := r.l
	switch r.at {
	case rdDraw:
		if it, err := l.idx.Next(); err != nil { // drop the partial batch (drop_last)
			r.Done = true
		} else if r.items = append(r.items, it); len(r.items) == l.spec.BatchSize {
			r.b = l.env.Pool.GetBatch(len(r.items))
			r.b.Samples = r.b.Samples[:len(r.items)]
			r.sent, r.got, r.at = 0, 0, rdDispatch
		}
	case rdDispatch:
		if r.sent == len(r.items) {
			r.at = rdCollect
		} else if step && l.ioTasks.Len() >= l.ioTasks.Cap() {
			return false
		} else if r.Err = l.ioTasks.Put(l.ctx, ioTask{item: r.items[r.sent], slot: r.sent}); r.Err == nil {
			r.sent++
		} else {
			r.at = rdCollect
		}
	case rdCollect:
		if r.got == r.sent {
			r.b.Seq, r.b.CreatedAt, r.at = r.seq, l.env.RT.Now(), rdHand
			r.Done = r.Err != nil
		} else if res, ok := loader.Take(&r.Path, l.ioDone); ok {
			if r.got++; res.err != nil && r.Err == nil {
				r.Err = res.err
			}
			r.b.Samples[res.slot] = res.s
		}
	case rdHand:
		raw := &l.pipes[r.seq%int64(len(l.pipes))].raw
		if step && raw.Len() >= raw.Cap() {
			return false
		}
		if r.Done = raw.Put(l.ctx, r.b) != nil; !r.Done {
			r.b, r.items, r.seq, r.at = nil, r.items[:0], r.seq+1, rdDraw
		}
	}
	return !r.Done
}

// gpuPipe is a GPU's preprocessing task (exec_async) with the queues on
// either side of it: it preprocesses raw batches on the GPU sample by sample
// and buffers the ready ones in GPU memory.
type gpuPipe struct {
	loader.Path
	l          *Loader
	g          *gpu.GPU
	raw, ready queue.Queue[*data.Batch]

	at   int         // where the path goes on
	b    *data.Batch // the batch in hand
	i    int         // its sample on the GPU
	perr error       // what that sample's pipeline walk ended with
}

// The points of a GPU pipe's path (Walk).
const (
	pipeTake   = iota // take the next raw batch, or wait for one
	pipeSample        // preprocess the batch's next sample, or buffer the batch
	pipeDone          // the sample's GPU occupancy is done
	pipePut           // hand the buffered batch to the ready queue
)

func (p *gpuPipe) run() {
	defer p.ready.Close()
	p.Run(p.l.ctx, p.l.env, p)
}

// Walk implements loader.Walker.
func (p *gpuPipe) Walk(step bool) bool {
	l, rt := p.l, p.l.env.RT
	switch p.at {
	case pipeTake:
		if b, ok := loader.Take(&p.Path, &p.raw); ok {
			p.b, p.i, p.at = b, 0, pipeSample
		}
	case pipeSample:
		if p.i < len(p.b.Samples) {
			s := p.b.Samples[p.i]
			s.PreprocStart = rt.Now()
			work, err := l.spec.Pipeline.Plan(s, -1)
			if p.perr, p.Err, p.at = err, nil, pipeDone; work > 0 {
				p.Occupy(p.g.Occupancy(time.Duration(float64(work) / speedup)))
			}
		} else if err := p.g.Reserve(p.b.Bytes()); err != nil {
			// Buffered ready batches live in GPU memory until consumed.
			// Memory pressure: DALI raises OOM in the real system (§3.4).
			// Our harness surfaces it as a stopped pipeline.
			p.b.Release()
			p.Done = true
		} else {
			p.b.Resident, p.b.CreatedAt, p.at = true, rt.Now(), pipePut
		}
	case pipeDone:
		if p.Done = cmp.Or(p.Err, p.perr) != nil; p.Done {
			p.b.Release()
		} else {
			p.b.Samples[p.i].PreprocEnd = rt.Now()
			p.i, p.at = p.i+1, pipeSample
		}
	case pipePut:
		if step && p.ready.Len() >= p.ready.Cap() {
			return false
		}
		if err := p.ready.Put(l.ctx, p.b); err != nil {
			p.g.Release(p.b.Bytes())
			p.b.Release()
			p.Done = true
		}
		p.b, p.at = nil, pipeTake
	}
	return !p.Done
}

// Next implements loader.Loader: per-GPU ready queues.
func (l *Loader) Next(ctx context.Context, g int) (*data.Batch, error) {
	b, err := l.pipes[g].ready.Get(ctx)
	if err != nil {
		return nil, loader.EOFIfClosed(err)
	}
	l.env.GPUs[g].Release(b.Bytes())
	if l.delivered++; l.delivered >= l.budget {
		l.Stop()
	}
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
	l.ioTasks.Close()
	l.ioDone.Close()
	for i := range l.pipes {
		p := &l.pipes[i]
		p.raw.Close()
		p.ready.Close()
		// Raw batches no pipe will take (the ready ones the session drains
		// through Next) go back to the pool.
		for b, ok, _ := p.raw.TryGet(); ok; b, ok, _ = p.raw.TryGet() {
			b.Release()
		}
	}
}
