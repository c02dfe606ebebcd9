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
package core

import (
	"context"
	"errors"
	"math"
	"time"

	"github.com/minatoloader/minato/internal/data"
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

	// LoaderName overrides the reported name.
	LoaderName string
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
	// pipeline, matTenant attributes its traffic. See warm.go.
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

// Name implements loader.Loader.
func (l *Loader) Name() string {
	if l.cfg.LoaderName != "" {
		return l.cfg.LoaderName
	}
	return "minato"
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

// spawnWorker launches one preprocessing worker. Workers prefer resuming
// timed-out samples (temp queue) over starting new ones, which keeps slow
// samples flowing into upcoming batches instead of deferring them to the
// end (§4.1: "MinatoLoader does not defer these samples to the very end").
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
// context.
func (l *Loader) work() {
	ctx := l.runCtx
	defer func() {
		l.sched.workerExited()
		// A worker exit can flip drained(); parked constructors re-check
		// when it did. (An unconditional pulse would reshuffle their
		// wait order on every exit of the tail — see assemble.)
		if l.drained() {
			l.gate.Pulse()
		}
	}()
	for !l.stopFlag && !l.sched.shouldRetire() {
		// Background completion first (slow-task work).
		if s, ok, _ := l.tempQ.TryGet(); ok {
			if !l.runSample(ctx, func() error { return l.finishSlow(ctx, s) }, s.OriginalOrder) {
				return
			}
			continue
		}
		// New sample.
		it, err := l.idx.Next()
		if err != nil { // index stream ended
			if !l.srcDone {
				l.srcDone = true
				l.gate.Pulse()
			}
			return
		}
		l.emitted++
		if !l.runSample(ctx, func() error { return l.processNew(ctx, it) }, it.Seq) {
			return
		}
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

// errSamplePanic marks a recovered transform panic so runSample treats it
// like any other per-sample failure.
var errSamplePanic = errors.New("minato: panic in sample processing")

// runSample executes one sample-processing step, containing panics and
// per-sample errors (a failed load, a corrupt sample rejected by a
// transform) to the sample itself: the sample is abandoned and the worker
// keeps serving. It reports whether the worker should continue; false means
// shutdown (queue closed or context cancelled), where abandoning would be
// wrong — the sample is not lost, the session is ending.
func (l *Loader) runSample(ctx context.Context, fn func() error, seq int64) bool {
	err := l.guard(fn)
	switch {
	case err == nil:
		return true
	case errors.Is(err, queue.ErrClosed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	default:
		l.abandon(seq)
		return true
	}
}

// guard runs fn, converting a panic into errSamplePanic.
func (l *Loader) guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = errSamplePanic
		}
	}()
	return fn()
}

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

// processNew runs the load-balancer path of Algorithm 1 for one draw: fill
// the sample, claim its key in the materialized cache (a hit is restored
// instead), read it, and classify it — upfront by size in the Fig 3a
// heuristic mode, by the profiler's compute budget otherwise. A fast sample
// is published here, completing its claim; a slow one parks in the temp
// queue and carries its claim into finishSlow. Parked followers deadlock the
// kernel unless a claim is settled, so the deferred Abort covers every other
// exit — a panic unwinding toward runSample's recover included, before any
// follower could observe a stale claim.
func (l *Loader) processNew(ctx context.Context, it loader.IndexItem) error {
	s := loader.FillSample(l.env, l.spec, it)
	settled := true
	var mk matcache.Key
	if l.mat != nil {
		mk = matcache.Key{Obj: s.Key, Sig: l.matSig}
		e, hit, err := l.claim(ctx, s, mk)
		if err != nil {
			l.env.Pool.Put(s)
			return err
		}
		if hit {
			return l.restoreHit(ctx, s, e)
		}
		settled = false
		defer func() {
			if !settled {
				l.mat.Abort(mk)
			}
		}()
	}
	if err := l.env.Store.ReadSample(ctx, l.env.RT, s); err != nil {
		l.env.Pool.Put(s)
		return err
	}
	s.PreprocStart = l.env.RT.Now()

	var err error
	heuristic := l.cfg.SizeHeuristicThreshold > 0
	switch {
	case heuristic && s.RawBytes > l.cfg.SizeHeuristicThreshold:
		s.MarkedSlow = true
	case heuristic:
		err = l.spec.Pipeline.Apply(ctx, l.env.CPU, s)
	default:
		err = l.spec.Pipeline.ApplyBudget(ctx, l.env.CPU, s, l.profiler.Timeout())
		if errors.Is(err, transform.ErrInterrupted) {
			err = nil
			l.traceSample(trace.StageTransform, s.PreprocStart, l.env.RT.Now(), s)
			s.MarkedSlow = true
			l.profiler.Classified(true)
			if l.cfg.RestartSlowFromScratch {
				// Ablation: discard partial progress. The reset copy comes
				// from the pool and the partially-processed instance goes
				// back to it; the claim follows the key, not the instance.
				s = l.env.Pool.CloneReset(s)
				s.MarkedSlow = true
			}
		}
	}
	if err != nil {
		l.env.Pool.Put(s)
		return err
	}
	if s.MarkedSlow {
		if err := l.tempQ.Put(ctx, s); err != nil {
			return err
		}
		settled = true // finishSlow settles the claim
		return nil
	}

	s.PreprocEnd = l.env.RT.Now()
	l.traceSample(trace.StageTransform, s.PreprocStart, s.PreprocEnd, s)
	l.profiler.Record(s.PreprocCost)
	if !heuristic {
		l.profiler.Classified(false)
	}
	if l.mat != nil {
		l.mat.Complete(l.matTenant, mk, matEntry(s))
		settled = true
		l.traceSample(trace.StageMatFill, s.PreprocStart, s.PreprocEnd, s)
	}
	return l.putFast(ctx, s)
}

// finishSlow completes a timed-out sample from its recorded transform
// index and publishes it to the slow queue (Algorithm 1 lines 14–18).
// With the materialized cache enabled, every parked sample carries a
// leader claim from processNew: the finished output is published to the
// cache, and any failure (or panic unwinding to runSample) aborts the
// claim so parked co-tenants re-elect a leader instead of deadlocking.
func (l *Loader) finishSlow(ctx context.Context, s *data.Sample) error {
	settled := true
	var mk matcache.Key
	if l.mat != nil {
		mk = matcache.Key{Obj: s.Key, Sig: l.matSig}
		settled = false
		defer func() {
			if !settled {
				l.mat.Abort(mk)
			}
		}()
	}
	s.ResumedFrom = s.NextTransform
	s.TimesResumed++
	resumeStart := l.env.RT.Now()
	if err := l.spec.Pipeline.Apply(ctx, l.env.CPU, s); err != nil {
		l.env.Pool.Put(s)
		return err
	}
	s.PreprocEnd = l.env.RT.Now()
	l.traceSample(trace.StageTransform, resumeStart, s.PreprocEnd, s)
	l.profiler.Record(s.PreprocCost)
	if l.mat != nil {
		l.mat.Complete(l.matTenant, mk, matEntry(s))
		settled = true
		l.traceSample(trace.StageMatFill, resumeStart, s.PreprocEnd, s)
	}
	if l.cfg.OrderPreserving {
		l.ordered.add(s)
		l.enqueued++
		return nil
	}
	l.enqueued++
	return l.slowQ.Put(ctx, s)
}

func (l *Loader) putFast(ctx context.Context, s *data.Sample) error {
	if l.cfg.OrderPreserving {
		l.ordered.add(s)
		l.enqueued++
		return nil
	}
	l.enqueued++
	return l.fastQ.Put(ctx, s)
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
