// Package core implements MinatoLoader, the paper's contribution: a
// general-purpose data loader that eliminates head-of-line blocking through
// a dynamic, sample-aware load balancer (§4).
//
// Architecture (Fig 5):
//
//	index stream → preprocessing workers ──fast──▶ fast queue ─┐
//	                    │ timeout t_out                        ├─▶ batch
//	                    └──────▶ temp queue ──background──▶ slow queue
//	                                                           │
//	                        batch constructor (one per GPU) ◀──┘
//	                                  │
//	                        per-GPU batch queues ──▶ Next()
//
// Workers apply the pipeline with a per-sample compute budget t_out
// (Algorithm 1). Samples finishing within budget enter the fast queue;
// samples exceeding it are parked in the temp queue with the index of the
// interrupted transform, and background processing resumes from there
// (re-executing the partial transform). Batch constructors drain the fast
// queue first, then the slow queue, so no sample ever stalls a batch.
//
// The timeout comes from a profiler: during warmup every sample is
// optimistically treated as fast while statistics accumulate; afterwards
// t_out is the 75th percentile of observed preprocessing times, falling
// back to the 90th when too many samples classify slow, and re-profiling
// continues in the background (§4.2).
//
// A worker scheduler adjusts the number of preprocessing workers using the
// paper's Formulas 1–2: queue emptiness and worker busyness raise the
// count; full queues and idle workers lower it (§4.3).
//
// Warm path: in front of a materialized cache of preprocessed samples
// (internal/matcache), epoch 1 runs Algorithm 1 and materializes every
// finished sample; epoch 2+, and co-tenant sessions sharing the cluster's
// cache, hit it and skip both the raw read and the pipeline, paying only a
// memory-bandwidth restore. Fills are single-flighted: of all workers (across
// all tenants) racing an uncached key, exactly one preprocesses it.
package core

import (
	"cmp"
	"context"
	"errors"
	"math"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
	"github.com/minatoloader/minato/internal/transform"
)

// Config holds MinatoLoader's tuning knobs with the paper's defaults.
type Config struct {
	// InitialWorkersPerGPU seeds the worker pool (12 per GPU, §4.3/§5.1).
	// The pool never grows past the CPU core count (§4.3).
	InitialWorkersPerGPU int

	// Profiler (§4.2).
	TimeoutPercentile  float64 // default defaultTimeoutPercentile
	FallbackPercentile float64 // default defaultFallbackPercentile
	MaxSlowFraction    float64 // fallback trigger, default defaultMaxSlowFraction
	WarmupSamples      int     // optimistic phase length, default defaultWarmupSamples

	// OrderPreserving disables reordering for curriculum/strict-order
	// training (§6): batches follow the sampler's order exactly and the
	// loader behaves like PyTorch DataLoader.
	OrderPreserving bool

	// SizeHeuristicThreshold, when positive, replaces the timeout
	// classifier with an upfront "predict slow if raw size exceeds
	// threshold" rule — the Fig 3a heuristic study. The timeout path is
	// disabled.
	SizeHeuristicThreshold int64

	// DisableAdaptiveWorkers freezes the pool at its initial size
	// (ablation).
	DisableAdaptiveWorkers bool
	// RestartSlowFromScratch re-runs the whole pipeline for timed-out
	// samples instead of resuming from the recorded transform index
	// (ablation of Algorithm 1's resume design).
	RestartSlowFromScratch bool
}

// DefaultConfig returns the paper's configuration (§5.1).
func DefaultConfig() Config {
	return Config{
		InitialWorkersPerGPU: 12,
		TimeoutPercentile:    defaultTimeoutPercentile,
		FallbackPercentile:   defaultFallbackPercentile,
		MaxSlowFraction:      defaultMaxSlowFraction,
		WarmupSamples:        defaultWarmupSamples,
	}
}

// queueCap bounds each of the loader's queues (100, §5.1).
const queueCap = 100

// fillDefaults fills the worker count; the profiler fills its own fields.
func (c *Config) fillDefaults() {
	if c.InitialWorkersPerGPU <= 0 {
		c.InitialWorkersPerGPU = DefaultConfig().InitialWorkersPerGPU
	}
}

// Loader is MinatoLoader. Its parts — index stream, queues, profiler,
// scheduler, gate, the constructors' selectors — are values inside it, so a
// loader costs a handful of allocations (itself, its queues' item rings, the
// per-GPU lanes, the profiler's window) however many parts it has, and one
// its owner recycled (Recycle) costs none: New hands it out again with that
// storage.
type Loader struct {
	run // what New resets on every use

	fastQ queue.Queue[*data.Sample]
	slowQ queue.Queue[*data.Sample]
	// tempQ parks timed-out samples for background completion; each carries
	// its interrupted transform index (Algorithm 1 line 11).
	tempQ queue.Queue[*data.Sample]
	lanes []lane // one per GPU
	// gate broadcasts accounting changes that can flip drained() without a
	// queue operation (faults, source exhaustion, worker exits, the final
	// consume), so parked batch constructors re-check instead of polling.
	gate simtime.Gate

	profiler Profiler
	sched    Scheduler

	// worker is the body spawnWorker hands every worker task: work under
	// runCtx. Built once per Loader, so neither the adaptive scheduler's
	// respawns — a steady trickle over a run — nor a recycled loader's next
	// run allocate one.
	worker func()
}

// run is a loader's per-run state, zeroed by New.
type run struct {
	env  *loader.Env
	spec loader.Spec
	cfg  Config

	idx loader.IndexSource

	// mat is the cluster's materialized preprocessed-sample cache (nil
	// disables the warm path); matSig keys this loader's entries by its
	// pipeline, matTenant attributes its traffic. See the package comment.
	mat       *matcache.Cache
	matSig    uint64
	matTenant int

	// Accounting for batch-constructor termination: a constructor may
	// exit only when every emitted sample has been consumed or abandoned.
	// Plain counters, like everything here: only the loader's tasks touch them.
	emitted   int64 // samples handed to workers
	enqueued  int64 // samples placed into fast or slow queues
	consumed  int64 // samples drawn into batches
	abandoned int64 // samples lost to preprocessing faults
	srcDone   bool  // index stream exhausted

	batchSeq int64
	// claims assigns batch slots to constructors so the delivery budget is
	// met exactly: without it, two constructors could strand the final
	// samples across two partial batches.
	claims  int64
	ordered *orderedBuffer // OrderPreserving mode only

	// runCtx is the context every task of the run parks under: scope's,
	// once Start has begun it. Stop cancels the scope.
	runCtx   context.Context
	scope    simtime.CancelScope
	stopFlag bool
}

// lane is one GPU's delivery: its batch queue, its batch constructor's body
// (built once per lane), and the constructor's wait: its selector, its wake
// sources in priority order, how many the current cycle armed, and the batch
// it is filling.
type lane struct {
	batches queue.Queue[*data.Batch]
	sel     simtime.Selector
	l       *Loader
	g       int
	body    func()

	srcs    [3]simtime.Source
	sources []simtime.Source // a prefix of srcs
	armed   int
	b       *data.Batch
}

func (ln *lane) construct() { ln.l.batchConstructor(ln.l.runCtx, ln.g) }

// stock holds the loaders their owners recycled, for New to hand out again;
// serve-256's 256 streams are its peak.
var stock = simtime.NewStock[*Loader](256)

// New returns a MinatoLoader over the given spec: a recycled one, if an
// owner recycled one before.
func New(env *loader.Env, spec loader.Spec, cfg Config) *Loader {
	cfg.fillDefaults()
	l, ok := stock.Get()
	if !ok {
		l = new(Loader)
		l.worker = l.work
	}
	l.run = run{env: env, spec: spec, cfg: cfg, runCtx: context.Background()}
	l.idx.Init(spec)
	l.fastQ.Init(env.RT, "fast", queueCap)
	l.slowQ.Init(env.RT, "slow", queueCap)
	l.tempQ.Init(env.RT, "temp", queueCap)
	l.gate.Init()
	if cap(l.lanes) < len(env.GPUs) {
		l.lanes = make([]lane, len(env.GPUs))
	}
	l.lanes = l.lanes[:len(env.GPUs)]
	for g := range l.lanes {
		ln := &l.lanes[g]
		ln.batches.Init(env.RT, "batch", queueCap)
		ln.sel = simtime.Selector{}
		ln.sel.Bind(env.RT)
		if ln.body == nil {
			ln.l, ln.g = l, g
			ln.body = ln.construct
		}
	}
	l.profiler.init(ProfilerConfig{
		TimeoutPercentile:  cfg.TimeoutPercentile,
		FallbackPercentile: cfg.FallbackPercentile,
		MaxSlowFraction:    cfg.MaxSlowFraction,
		WarmupSamples:      cfg.WarmupSamples,
	})
	l.sched.init(l)
	if cfg.OrderPreserving {
		l.ordered = newOrderedBuffer()
	}
	if env.Mat != nil && spec.Pipeline != nil {
		l.mat = env.Mat
		l.matSig = spec.Pipeline.Signature()
		if env.Store != nil {
			l.matTenant = env.Store.Tenant
		}
	}
	return l
}

// Recycle hands ld, when it is a MinatoLoader, to a later New on this
// goroutine or another, with its queues' rings, lanes and profiler window.
// Its owner calls it once the loader's tasks have exited, and only for a
// loader no handle of a user can reach: nothing may call the loader
// afterwards. It is a function of this internal package, not a
// method, so the public Loader alias offers no way to recycle a live loader.
func Recycle(ld loader.Loader) {
	if l, ok := ld.(*Loader); ok {
		l.run = run{}
		stock.Put(l)
	}
}

// maxWorkersNow returns the pool's current upper bound: the CPU core count
// clamped by the environment's worker share, when one is set.
// Re-read on every scheduling decision so a cluster rebalancing tenant
// quotas takes effect at the next tick.
func (l *Loader) maxWorkersNow() int {
	m := int(l.env.CPU.Capacity())
	if l.env.Gov != nil {
		if q := l.env.Gov.WorkerQuota(); q < m {
			m = q
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Start implements loader.Loader.
func (l *Loader) Start(parent context.Context) error {
	l.runCtx = l.scope.Begin(l.env.RT, parent)

	initial := l.cfg.InitialWorkersPerGPU * len(l.env.GPUs)
	if max := l.maxWorkersNow(); initial > max {
		initial = max
	}
	l.sched.SetTarget(initial)
	for i := 0; i < initial; i++ {
		l.spawnWorker()
	}
	if !l.cfg.DisableAdaptiveWorkers {
		l.sched.Start()
	}

	for g := range l.lanes {
		l.env.WG.Go("minato-batcher", l.lanes[g].body)
	}
	return nil
}

// spawnWorker launches one preprocessing worker on a free slot. Workers
// prefer resuming timed-out samples (temp queue) over starting new ones,
// which keeps slow samples flowing into upcoming batches instead of deferring
// them to the end (§4.1: "MinatoLoader does not defer these samples to the
// very end").
//
// A worker never idles: the index cursor always has the next draw until the
// stream ends, and then the worker exits — a peer still inside a sample
// resumes whatever it parks in the temp queue itself. A panic or a
// per-sample error in loading or a user transform is contained to the sample
// being processed: the sample is abandoned (counted, surfaced via Faults) and
// the worker keeps serving — matching the isolation a multiprocessing-based
// loader gets from worker processes.
func (l *Loader) spawnWorker() {
	l.sched.workerSpawned()
	l.env.WG.Go("minato-worker", l.worker)
}

// work is one preprocessing worker's life (see spawnWorker), under the run's
// context, on a slot from the stock: it walks the sample path, parks in
// WaitStep on every occupancy the path enters, and makes the moves a step
// hands back.
func (l *Loader) work() {
	w, ok := slots.Get()
	if !ok {
		w = new(worker)
	}
	w.l = l
	w.sel.Bind(l.env.RT)
	defer func() {
		l.sched.workerExited()
		// A worker exit can flip drained(); parked constructors re-check
		// when it did. (An unconditional pulse would reshuffle their
		// wait order on every exit of the tail — see assemble.)
		if l.drained() {
			l.gate.Pulse()
		}
		*w = worker{}
		slots.Put(w)
	}()
	for w.at = atTake; w.at != atExit; {
		if d, wait := w.walk(false); wait {
			if err := w.sel.WaitStep(l.runCtx, d, w); err != nil {
				w.dev.Leave(w.e, false) // cancelled: the occupancy ends unfinished
				w.e, w.err = nil, err
			}
		}
	}
}

// slots holds exited workers' slots, process-wide, for respawns and later runs.
// Its bound is the benchmark workloads' peak: multinode8-flashcrowd's 416.
var slots = simtime.NewStock[*worker](416)

// worker is one worker slot: the sample path a worker task walks, one sample
// after another. The task parks once, for as long as the path runs from
// device to device: each wake that ends an occupancy walks it on (Step).
type worker struct {
	l   *Loader
	sel simtime.Selector // the one the task parks on, on every device

	at    int            // where the path goes on
	s     *data.Sample   // the sample in hand
	seq   int64          // its draw order
	dev   *device.Device // the device it occupies, with its entry
	e     *device.Entry
	err   error         // what the last occupancy ended with
	perr  error         // and the pipeline walk that planned it
	t0    time.Duration // the read's, or the resumed pipeline's, start
	q     *queue.Queue[*data.Sample]
	mk    matcache.Key
	claim bool // s holds an unsettled leader claim on mk
}

// The points of the sample path (walk), Algorithm 1's for one draw.
const (
	atTake     = iota // resume a timed-out sample, else draw a new one
	atMat             // look the draw up in the materialized cache
	atRead            // look it up in the page cache, then read it
	atFetched         // the disk read is done
	atLoaded          // start the pipeline on the read sample
	atPlanned         // the budgeted pipeline's occupancy is done
	atResumed         // a timed-out sample's remaining occupancy is done
	atRestored        // a materialized hit's restore is done
	atPut             // hand the sample to q
	atExit
)

// Step implements simtime.Stepper: a wake walks the path on, in the task's
// turn, to its next occupancy. A move that parks elsewhere (behind a fill in
// flight, on a full queue, in a remote fetch) or exits resumes the task.
func (w *worker) Step() (time.Duration, bool) { return w.walk(true) }

// walk runs the sample path from w.at until it waits out an occupancy,
// returning the park's deadline and true, or returns false: the worker exits,
// or a step reached a move for its task. A panic in user code (a dataset's
// Fill, a transform's Validate, Cost or SizeFactor) abandons the sample.
func (w *worker) walk(step bool) (d time.Duration, wait bool) {
	defer func() {
		if recover() != nil {
			w.fail(errSamplePanic, false)
			d, wait = 0, false
		}
	}()
	l := w.l
	ctx, rt, st := l.runCtx, l.env.RT, l.env.Store
	for w.at != atExit {
		if w.e != nil {
			if d, wait := w.dev.Settle(w.e); wait {
				return d, true
			}
			w.dev.Leave(w.e, true)
			w.e = nil
		}
		switch s := w.s; w.at {
		case atTake:
			if l.stopFlag || l.sched.shouldRetire() {
				w.at = atExit
			} else if s, ok, _ := l.tempQ.TryGet(); ok {
				// Background completion (Algorithm 1 lines 14–18), claim and all.
				w.s, w.seq, w.claim = s, s.OriginalOrder, l.mat != nil
				w.mk = matcache.Key{Obj: s.Key, Sig: l.matSig}
				s.ResumedFrom = s.NextTransform
				s.TimesResumed++
				w.t0 = rt.Now()
				w.plan(-1, atResumed)
			} else if it, err := l.idx.Next(); err != nil { // index stream ended
				if !l.srcDone {
					l.srcDone = true
					l.gate.Pulse()
				}
				w.at = atExit
			} else {
				l.emitted++
				w.seq, w.claim, w.at = it.Seq, false, atMat
				w.s = loader.FillSample(l.env, l.spec, it)
			}
		case atMat: // claim the draw's key; a hit is restored instead
			w.mk = matcache.Key{Obj: s.Key, Sig: l.matSig}
			if l.mat != nil && step && l.mat.Waits(w.mk) {
				return 0, false
			}
			if w.at = atRead; l.mat == nil {
				continue
			}
			e, hit, err := l.mat.GetOrWait(ctx, l.matTenant, w.mk, rt, func(since time.Duration) {
				l.traceSample(trace.StageMatWait, since, rt.Now(), s)
			})
			switch {
			case err != nil:
				w.fail(err, true)
			case hit:
				// Only the restore of the materialized tensor is paid. Hits
				// bypass the profiler: restore times are not preprocessing
				// times and would drag the timeout toward zero.
				now := rt.Now()
				l.traceSample(trace.StageMatHit, now, now, s)
				s.LoadedAt, s.PreprocStart = now, now
				restore := matcache.RestoreCost(e.Bytes)
				if restore > 0 {
					s.PreprocCost = restore
				}
				s.Bytes, s.NextTransform = e.Bytes, l.spec.Pipeline.Len()
				w.occupy(nil, restore, atRestored)
			default:
				w.claim = true
			}
		case atRead:
			if step && st.Cache != nil && st.Cache.Waits(s.Key) {
				return 0, false
			}
			if read, err := st.Lookup(ctx, rt, s); err != nil {
				w.fail(err, true)
			} else if w.at, w.t0 = atLoaded, rt.Now(); read && s.RawBytes > 0 {
				dev, work := st.Disk.Occupancy(s.RawBytes)
				w.occupy(dev, work, atFetched)
			} else if read {
				w.occupy(nil, 0, atFetched)
			}
		case atFetched:
			if step && st.Remote != nil {
				return 0, false
			}
			if err := st.Fetched(ctx, rt, s, w.t0, w.err); err != nil {
				w.fail(err, true)
			} else {
				w.at = atLoaded
			}
		case atLoaded: // classified upfront by size in the Fig 3a heuristic mode
			s.PreprocStart = rt.Now()
			switch h := l.cfg.SizeHeuristicThreshold; {
			case h > 0 && s.RawBytes > h:
				s.MarkedSlow = true
				w.perr = nil
				w.occupy(nil, 0, atPlanned)
			case h > 0:
				w.plan(-1, atPlanned)
			default:
				w.plan(l.profiler.Timeout(), atPlanned)
			}
		case atPlanned:
			err := cmp.Or(w.err, w.perr)
			if errors.Is(err, transform.ErrInterrupted) {
				err = nil
				l.traceSample(trace.StageTransform, s.PreprocStart, rt.Now(), s)
				s.MarkedSlow = true
				l.profiler.Classified(true)
				if l.cfg.RestartSlowFromScratch {
					// Ablation: discard partial progress. The reset copy comes
					// from the pool and the partially-processed instance goes
					// back to it; the claim follows the key, not the instance.
					s = l.env.Pool.CloneReset(s)
					s.MarkedSlow = true
					w.s = s
				}
			}
			switch {
			case err != nil:
				w.fail(err, true)
			case s.MarkedSlow: // parked for background completion, claim and all
				w.at, w.q = atPut, &l.tempQ
			default:
				s.PreprocEnd = rt.Now()
				l.traceSample(trace.StageTransform, s.PreprocStart, s.PreprocEnd, s)
				l.profiler.Record(s.PreprocCost)
				if l.cfg.SizeHeuristicThreshold <= 0 {
					l.profiler.Classified(false)
				}
				w.publish(s.PreprocStart, &l.fastQ)
			}
		case atResumed:
			if err := cmp.Or(w.err, w.perr); err != nil {
				w.fail(err, true)
				continue
			}
			s.PreprocEnd = rt.Now()
			l.traceSample(trace.StageTransform, w.t0, s.PreprocEnd, s)
			l.profiler.Record(s.PreprocCost)
			w.publish(w.t0, &l.slowQ)
		case atRestored:
			if s.PreprocEnd = rt.Now(); w.err != nil {
				w.fail(w.err, true)
			} else {
				w.publish(0, &l.fastQ)
			}
		case atPut:
			if q := w.q; step && q.Len() >= q.Cap() {
				return 0, false
			} else if err := q.Put(ctx, s); err != nil {
				w.fail(err, false)
			} else {
				w.s, w.claim, w.at = nil, false, atTake
			}
		}
	}
	return 0, false
}

// plan walks the pipeline for the sample in hand with budget (negative for
// none) and occupies the CPU for its work, going on at next.
func (w *worker) plan(budget time.Duration, next int) {
	work, err := w.l.spec.Pipeline.Plan(w.s, budget)
	w.occupy(nil, work, next)
	w.perr = err
}

// occupy enters dev — nil: the CPU, if work > 0 — for work, parked on the
// worker's selector, and goes on at next once it is done: Device.Run, apart.
func (w *worker) occupy(dev *device.Device, work time.Duration, next int) {
	if w.at, w.dev, w.err = next, dev, nil; dev == nil && work > 0 {
		w.dev = w.l.env.CPU
	}
	if w.dev != nil {
		if w.err = w.l.runCtx.Err(); w.err == nil {
			w.e = w.dev.Enter(work, &w.sel)
		}
	}
}

// publish completes the finished sample's claim, materializing it for later
// hits (its fill span from start), and hands it to q or the ordered buffer.
func (w *worker) publish(start time.Duration, q *queue.Queue[*data.Sample]) {
	l, s := w.l, w.s
	if w.claim {
		l.mat.Complete(l.matTenant, w.mk, matEntry(s))
		w.claim = false
		l.traceSample(trace.StageMatFill, start, s.PreprocEnd, s)
	}
	l.enqueued++
	if w.at, w.q = atPut, q; l.cfg.OrderPreserving {
		l.ordered.add(s)
		w.s, w.at = nil, atTake
	}
}

// fail ends the sample in hand with err: back to the pool when release, its
// claim aborted, so parked followers re-elect a leader. A shutdown (queue
// closed, context cancelled) ends the worker — the sample is not lost, the
// session is ending; any other error abandons the sample, and it goes on.
func (w *worker) fail(err error, release bool) {
	l := w.l
	if release {
		l.env.Pool.Put(w.s)
	}
	if w.claim {
		l.mat.Abort(w.mk)
		w.claim = false
	}
	w.s, w.at = nil, atExit
	if !errors.Is(err, queue.ErrClosed) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		w.at = atTake
		l.abandon(w.seq)
	}
}

// traceSample records a worker-layer span for sample s; a no-op without
// tracing. StageMatFill spans cover the work performed under the leader
// claim: a slow sample's parked window shows up as the gap between its
// budgeted and resumed transform spans, not as fill time.
func (l *Loader) traceSample(stage trace.Stage, start, end time.Duration, s *data.Sample) {
	tr := l.env.RT.Trace()
	if tr == nil {
		return
	}
	tr.Record(trace.Span{Start: start, End: end, Stage: stage,
		Tenant: l.env.TraceTenant(), Node: l.env.TraceNode,
		Key: int64(s.Index), Seq: s.OriginalOrder, Detail: s.RawBytes})
}

// errSamplePanic marks a recovered panic in sample processing, handled like
// any other per-sample failure.
var errSamplePanic = errors.New("minato: panic in sample processing")

// abandon records the loss of the sample with the given draw order: the
// abandoned counter keeps the termination accounting consistent so batch
// constructors do not wait for a sample that will never arrive, the ordered
// buffer (if any) skips the hole, and the gate wakes parked constructors to
// re-check drained().
func (l *Loader) abandon(seq int64) {
	l.abandoned++
	if l.cfg.OrderPreserving {
		l.ordered.skip(seq)
	}
	l.gate.Pulse()
}

// Faults returns the number of samples abandoned due to failing or
// panicking loads and transforms.
func (l *Loader) Faults() int64 { return l.abandoned }

// matEntry captures the materialized record of a finished sample: its
// post-pipeline size and the preprocessing compute a future hit saves (the
// sample's measured cost, including any budget-interrupt re-execution).
// Only values are copied — the cache never retains the pooled sample.
func matEntry(s *data.Sample) matcache.Entry {
	return matcache.Entry{Bytes: s.Bytes, Cost: s.PreprocCost}
}

// batchConstructor assembles batches for GPU g: fast queue first, slow
// queue second, blocking on the wait fabric when neither has samples
// (Algorithm 1 lines 19–30). Each full batch occupies a claimed slot of the
// delivery budget, so the tail of the sample stream lands in exactly one
// constructor; a slot whose batch cannot be assembled (shutdown or an
// abnormal deficit) is released so the claim counter stays an exact account
// of assembled batches.
func (l *Loader) batchConstructor(ctx context.Context, g int) {
	ln := &l.lanes[g]
	out := &ln.batches
	defer out.Close()
	total := int64(l.spec.TotalBatches())
	// Wake sources for an idle constructor, in priority order. The gate
	// carries accounting-only changes (faults, source exhaustion) that could
	// flip drained() without a queue operation.
	if l.cfg.OrderPreserving {
		ln.srcs = [3]simtime.Source{l.ordered, &l.gate}
		ln.sources = ln.srcs[:2]
	} else {
		ln.srcs = [3]simtime.Source{&l.fastQ, &l.slowQ, &l.gate}
		ln.sources = ln.srcs[:]
	}
	for {
		if l.stopFlag {
			return
		}
		if l.claims >= total {
			return
		}
		l.claims++
		b, ok := l.assemble(ctx, ln)
		if !ok {
			l.claims--
			return
		}
		if err := out.Put(ctx, b); err != nil {
			b.Release()
			return
		}
	}
}

// assemble gathers one full batch for the lane. Its constructor parks while
// no sample is ready, and the lane's wake step (fill) takes each sample in
// the constructor's turn, so the task resumes once, with the batch full or
// abandoned.
func (l *Loader) assemble(ctx context.Context, ln *lane) (*data.Batch, bool) {
	asmStart := l.env.RT.Now()
	// The batch (and the backing array for its samples) comes from the
	// session pool; the consumer returns it with Batch.Release.
	ln.b = l.env.Pool.GetBatch(l.spec.BatchSize)
	if ln.fill() && ln.sel.WaitStep(ctx, 0, ln) != nil {
		ln.disarm() // cancelled: the cycle's sources are the task's to disarm
	}
	b := ln.b
	ln.b = nil
	if len(b.Samples) < l.spec.BatchSize { // shutdown, or an abnormal deficit
		b.Release()
		return nil, false
	}
	b.Seq = l.batchSeq
	l.batchSeq++
	b.CreatedAt = l.env.RT.Now()
	// §4.3: a CUDA prefetch stream moves batch i to GPU memory while
	// batch i−1 trains, so delivered batches are resident.
	b.Resident = true
	if tr := l.env.RT.Trace(); tr != nil {
		tr.Record(trace.Span{Start: asmStart, End: b.CreatedAt,
			Stage: trace.StageAssemble, Tenant: l.env.TraceTenant(),
			Node: l.env.TraceNode, Key: int64(ln.g), Seq: b.Seq,
			Detail: int64(len(b.Samples))})
	}
	return b, true
}

// fill draws samples into the lane's batch, fast queue first, slow queue
// second (or from the ordered buffer), until the batch is full or no sample
// will come (shutdown, or an abnormal deficit upstream), and reports whether
// the constructor must wait: its selector is then armed on its sources in
// priority order, as Select arms them. Slow samples are drawn only when the
// fast queue is empty, preserving Algorithm 1's priority: the scan runs anew
// after every wake, whichever source fired.
func (ln *lane) fill() (wait bool) {
	l := ln.l
	for len(ln.b.Samples) < l.spec.BatchSize {
		if l.stopFlag {
			return false
		}
		var s *data.Sample
		if l.cfg.OrderPreserving {
			s = l.ordered.takeNext()
		} else if v, ok, _ := l.fastQ.TryGet(); ok {
			s = v
		} else if v, ok, _ := l.slowQ.TryGet(); ok {
			s = v
		}
		if s == nil {
			if l.drained() {
				return false
			}
			ln.sel.Reset()
			ln.armed = len(ln.sources)
			for i, src := range ln.sources {
				if src.Arm(&ln.sel, i) {
					ln.armed = i + 1
					break
				}
			}
			return true
		}
		l.consumed++
		if l.drained() {
			// The final sample of the stream: peers parked on an empty
			// queue must re-check drained(). Only then — a sample-starved
			// tail empties the queue on every take, and a pulse there costs
			// each peer its place in the queue's wait order for nothing
			// (the taker re-arms first), handing the taker every later
			// sample.
			l.gate.Pulse()
		}
		ln.b.Samples = append(ln.b.Samples, s)
	}
	return false
}

// Step implements simtime.Stepper: a wake of the lane's constructor disarms
// the cycle's sources and fills on.
func (ln *lane) Step() (time.Duration, bool) {
	ln.disarm()
	return 0, ln.fill()
}

func (ln *lane) disarm() {
	for _, src := range ln.sources[:ln.armed] {
		src.Disarm(&ln.sel)
	}
}

// drained reports that no more samples will ever arrive: the index stream
// ended and everything emitted has been consumed or is in a final queue
// that is empty.
func (l *Loader) drained() bool {
	if !l.srcDone {
		return false
	}
	if l.sched.liveWorkers() > 0 {
		// Workers may still be finishing in-flight samples.
		return l.enqueued == l.consumed && l.allQueuesEmpty() && l.workersIdle()
	}
	return l.enqueued == l.consumed && l.allQueuesEmpty()
}

func (l *Loader) allQueuesEmpty() bool {
	if l.cfg.OrderPreserving {
		return l.ordered.empty()
	}
	return l.fastQ.Len() == 0 && l.slowQ.Len() == 0 && l.tempQ.Len() == 0
}

func (l *Loader) workersIdle() bool {
	// All emitted samples accounted for — enqueued or abandoned — so none
	// is in flight inside a worker.
	return l.emitted == l.enqueued+l.abandoned
}

// Next implements loader.Loader: per-GPU batch queues (Algorithm 1 lines
// 31–37; queue Get already blocks, subsuming the sleep-poll loop).
func (l *Loader) Next(ctx context.Context, g int) (*data.Batch, error) {
	b, err := l.lanes[g].batches.Get(ctx)
	if err != nil {
		return nil, loader.EOFIfClosed(err)
	}
	if tr := l.env.RT.Trace(); tr != nil {
		// The batch's stay in the delivery queue, sealed to drawn.
		tr.Record(trace.Span{Start: b.CreatedAt, End: l.env.RT.Now(),
			Stage: trace.StageQueueWait, Tenant: l.env.TraceTenant(),
			Node: l.env.TraceNode, Key: int64(g), Seq: b.Seq})
	}
	return b, nil
}

// Stop implements loader.Loader.
func (l *Loader) Stop() {
	if l.stopFlag {
		return
	}
	l.stopFlag = true
	l.scope.Cancel()
	l.idx.Close()
	l.fastQ.Close()
	l.slowQ.Close()
	l.tempQ.Close()
	// Each parked slow sample carries an unsettled matcache leader claim
	// (processNew defers settlement to finishSlow). No worker will resume
	// them now, so drain the queue and abort the claims — otherwise the
	// keys stay inflight in the cluster-shared cache and co-tenant or
	// later sessions park forever on a fill that will never complete. A
	// racing worker that wins an item instead settles it through
	// finishSlow's own Complete/Abort paths.
	for {
		s, ok, _ := l.tempQ.TryGet()
		if !ok {
			break
		}
		if l.mat != nil {
			l.mat.Abort(matcache.Key{Obj: s.Key, Sig: l.matSig})
		}
		l.env.Pool.Put(s)
	}
	for g := range l.lanes {
		l.lanes[g].batches.Close()
	}
	// Constructors parked on the ordered buffer (which has no close
	// event) re-check stopFlag on the gate pulse.
	l.gate.Pulse()
}

// Timeout exposes the current classification timeout (diagnostics).
func (l *Loader) Timeout() time.Duration { return l.profiler.Timeout() }

// Workers exposes the live worker count (diagnostics).
func (l *Loader) Workers() int { return l.sched.liveWorkers() }

// PeakWorkers exposes the largest pool size reached (diagnostics).
func (l *Loader) PeakWorkers() int { return l.sched.peakWorkers() }

// RegisterMetrics implements loader.Instrumented.
func (l *Loader) RegisterMetrics(c *metrics.Collector) {
	c.Register("minato_workers", func() float64 { return float64(l.sched.liveWorkers()) })
	c.Register("minato_fastq", func() float64 { return float64(l.fastQ.Len()) })
	c.Register("minato_slowq", func() float64 { return float64(l.slowQ.Len()) })
	c.Register("minato_tempq", func() float64 { return float64(l.tempQ.Len()) })
	c.Register("minato_batchq", func() float64 {
		n := 0
		for g := range l.lanes {
			n += l.lanes[g].batches.Len()
		}
		return float64(n)
	})
	c.Register("minato_timeout_ms", func() float64 {
		t := l.profiler.Timeout()
		if t == math.MaxInt64 {
			return -1
		}
		return float64(t) / float64(time.Millisecond)
	})
}

// orderedBuffer supports the order-preserving mode (§6): completed samples
// are released strictly in sampler order. It is a wake source: consumers arm
// a selector on it and are woken when the next-in-order slot fills (or is
// abandoned), so the mode runs without polling. A nil map value is a
// tombstone for an abandoned draw; takeNext skips over tombstones so one
// faulty sample does not stall the order forever. Task-only state: no lock.
type orderedBuffer struct {
	pending map[int64]*data.Sample
	next    int64
	live    int // non-tombstone entries
	subs    simtime.WaitList
}

func newOrderedBuffer() *orderedBuffer {
	return &orderedBuffer{pending: make(map[int64]*data.Sample)}
}

func (o *orderedBuffer) add(s *data.Sample) {
	o.pending[s.OriginalOrder] = s
	o.live++
	if s.OriginalOrder == o.next {
		o.subs.WakeOne()
	}
}

// skip tombstones an abandoned draw so the order can advance past it.
func (o *orderedBuffer) skip(seq int64) {
	if seq < o.next {
		return
	}
	if _, ok := o.pending[seq]; !ok {
		o.pending[seq] = nil
		if seq == o.next {
			o.subs.WakeOne()
		}
	}
}

// takeNext returns the next-in-order sample if ready, else nil. Tombstones
// in front are consumed along the way.
func (o *orderedBuffer) takeNext() *data.Sample {
	for {
		s, ok := o.pending[o.next]
		if !ok {
			return nil
		}
		delete(o.pending, o.next)
		o.next++
		if s == nil {
			continue // abandoned draw
		}
		o.live--
		if _, ok := o.pending[o.next]; ok {
			// Another consumer can proceed with the new front.
			o.subs.WakeOne()
		}
		return s
	}
}

func (o *orderedBuffer) empty() bool { return o.live == 0 }

// Arm implements simtime.Source: ready when the next-in-order slot exists
// (sample or tombstone — consumers re-scan either way).
func (o *orderedBuffer) Arm(sel *simtime.Selector, idx int) bool {
	if _, ok := o.pending[o.next]; ok {
		sel.TryWake(idx)
		return true
	}
	o.subs.Arm(sel, idx)
	return false
}

// Disarm implements simtime.Source.
func (o *orderedBuffer) Disarm(sel *simtime.Selector) { o.subs.Disarm(sel) }

var _ simtime.Source = (*orderedBuffer)(nil)
