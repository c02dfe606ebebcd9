package minato

import (
	"context"
	"errors"
	"io"
	"iter"
	"sync"
	"time"

	"github.com/minatoloader/minato/internal/trainer"
)

// WithPipeline sets the preprocessing pipeline samples flow through
// (training workloads carry their own); the default is an empty pipeline
// that delivers samples unchanged. Open and Cluster.Open.
func WithPipeline(p *Pipeline) Option {
	return Option{"WithPipeline", loads, func(o *options) { o.pipeline = p }}
}

// WithBatchSize sets how many samples each delivered batch holds. Open and
// Dial default to 32; Train defaults to the workload's Table 3 value. Every
// entry point that runs a loader, and Dial.
func WithBatchSize(n int) Option {
	return Option{"WithBatchSize", runs | atDial, func(o *options) { o.batchSize = n }}
}

// WithLoader selects the data loader backend by registered name
// (RegisterLoader; "pytorch", "pecan", "dali", and "minato" are built in).
// The default is "minato". Every entry point that runs a loader.
func WithLoader(name string) Option {
	return Option{"WithLoader", runs, func(o *options) { o.loaderName = name }}
}

// WithLoaderFactory bypasses the registry and uses the given factory
// directly — for one-off configurations not worth registering. Scoped like
// WithLoader.
func WithLoaderFactory(f Factory) Option {
	return Option{"WithLoaderFactory", runs, func(o *options) { o.factory = &f }}
}

// WithLoaderConfig runs MinatoLoader with a custom Config instead of the
// paper's defaults. It conflicts with selecting a non-minato loader. Scoped
// like WithLoader.
func WithLoaderConfig(cfg Config) Option {
	return Option{"WithLoaderConfig", runs, func(o *options) { o.loaderCfg = &cfg }}
}

// WithHardware runs on one of the simulated testbeds (ConfigA, ConfigB, or
// a custom HardwareConfig): it sizes NewCluster's shared testbed, the
// implicit cluster of a standalone Open or Train, and each node of a
// multi-node Train. Sessions opened on an explicit Cluster cannot carry it —
// the hardware is cluster-owned.
func WithHardware(cfg HardwareConfig) Option {
	return Option{"WithHardware", implicit | atNewCluster, func(o *options) { o.hw = &cfg }}
}

// WithEnv sizes a custom embedder environment (cores, disk, cache) instead
// of a paper testbed. It conflicts with WithHardware. Open and NewCluster.
func WithEnv(cfg EnvConfig) Option {
	return Option{"WithEnv", atOpen | atNewCluster, func(o *options) { o.env = &cfg }}
}

// WithGPUs overrides the GPU (consumer) count: of NewCluster's shared
// testbed, of a standalone Open or Train's implicit one, of each node of a
// multi-node Train. On a session of an explicit Cluster (Cluster.Open,
// Cluster.Train, Resume) it selects how many of the cluster's GPUs the
// session's delivery shards across (at most the cluster's count).
func WithGPUs(n int) Option {
	return Option{"WithGPUs", runs | atNewCluster | atResume, func(o *options) { o.gpus = n }}
}

// WithRuntime runs on an existing runtime: a virtual kernel shared with
// other clusters or services, taken from Cluster.Runtime, Session.Runtime or
// ServiceNet.Runtime. The default is a fresh deterministic virtual runtime
// per cluster. Open and NewCluster.
func WithRuntime(rt *Runtime) Option {
	return Option{"WithRuntime", atOpen | atNewCluster, func(o *options) { o.rt = rt }}
}

// WithMaterializedCache enables the materialized preprocessed-sample cache
// with the given byte capacity: epoch 1 materializes every preprocessed
// sample, epoch 2+ — and co-tenant sessions of the same cluster — hit the
// cache and skip preprocessing entirely ("warm epochs"; see DESIGN.md's
// cache hierarchy). The capacity is carved out of the page cache's, so the
// machine's total simulated memory stays constant; asking for more than the
// page cache holds is a *ConfigError. Entries are keyed by (sample key,
// pipeline signature) and evicted cost-aware — least preprocessing-seconds
// saved per byte first. The cache serves the MinatoLoader backend; baseline
// loaders ignore it.
//
// Like the other substrate options it is cluster-owned: NewCluster, or a
// standalone Open or Train, which configure the implicit cluster.
func WithMaterializedCache(bytes int64) Option {
	return Option{"WithMaterializedCache", atOpen | atTrain | atNewCluster, func(o *options) { o.matBytes = bytes }}
}

// WithIterations bounds the session to n delivered batches, wrapping
// epochs as needed. It takes precedence over WithEpochs. Scoped like
// WithBatchSize.
func WithIterations(n int) Option {
	return Option{"WithIterations", runs | atDial, func(o *options) { o.iterations = n }}
}

// WithEpochs bounds the session to n full passes over the dataset
// (drop-last semantics). The default budget is one epoch. Scoped like
// WithBatchSize.
func WithEpochs(n int) Option {
	return Option{"WithEpochs", runs | atDial, func(o *options) { o.epochs = n }}
}

// WithSeed keys every random draw of a loading session (shuffling,
// synthetic sample properties). Identical seeds reproduce runs exactly.
// Default 1. Open, Cluster.Open and Dial: a training run's seed is its
// workload's, fixed where WorkloadByName(name, seed) builds it.
func WithSeed(seed uint64) Option {
	return Option{"WithSeed", loads | atDial, func(o *options) { o.seed = seed }}
}

// WithParams tunes what a single-machine training run records (time
// series, batch composition, per-sample traces). Train and Cluster.Train;
// a multi-node Train records its own fixed set.
func WithParams(p Params) Option {
	return Option{"WithParams", trains, func(o *options) { o.params = p }}
}

// WithRetainBatches disables the session's batch recycling: every batch
// yielded by Batches stays valid indefinitely, at the cost of allocating
// fresh samples for every draw. Without it, a yielded batch (and the
// samples inside it) is recycled when the loop takes the next step, so
// callers that keep references across iterations must either copy what
// they need or set this option. Open, Cluster.Open, Dial and Resume.
func WithRetainBatches() Option {
	return Option{"WithRetainBatches", loads | atDial | atResume, func(o *options) { o.retain = true }}
}

// WithPriority weights the session in the cluster's fair arbitration of
// preprocessing workers: a weight-2 tenant receives twice the worker quota
// of a weight-1 tenant (always at least one worker). The default weight is
// 1. Weights must be positive. Every single-machine session, and Resume.
func WithPriority(weight float64) Option {
	return Option{"WithPriority", loads | trains | atResume, func(o *options) { o.weight = weight; o.prioritySet = true }}
}

// Session is one data-loading run: a dataset flowing through a
// preprocessing pipeline into batches, delivered by a pluggable loader
// backend over a simulated runtime.
//
// Lifecycle: Open (or Cluster.Open) configures and wires the session,
// Batches streams the configured batch budget exactly once, Close tears
// down and returns the session's Report. The Batches iterator itself is
// single-consumer, but sessions are safe to run concurrently with sibling
// sessions of the same Cluster: cross-session state — the page cache, the
// sample pool, the worker arbitration — lives behind the cluster. Stats may
// be called from any goroutine, loop bodies included, while the session
// streams; Close enters the session's kernel, so it is for goroutines that are
// not tasks of it: after the Batches or StreamAll loop, not inside its body.
type Session struct {
	// stream is the single-use state, counters and batch pump a Session
	// shares with a RemoteSession; the Session is its local source.
	stream

	cl          *Cluster
	ownsCluster bool
	// served marks a server's stream (Serve): opened, driven and closed by
	// tasks of the cluster's kernel, with no script and no reader of its
	// report, so it keeps no SLO bookkeeping.
	served      bool
	cacheTenant int
	share       *clusterShare
	gpuIdxs     []int

	env     Env // the loader's, which holds its address
	ld      DataLoader
	name    string
	spec    Spec
	factory Factory
	script  ChaosScript
	// cst replays the session's chaos script against the batch stream
	// and keeps the SLO bookkeeping (step-interval histogram, fault
	// windows); created when the stream starts.
	cst *trainer.ChaosState
	// resumedAt marks a session created by Resume; recoveredIn is the time
	// from the resume to its first delivered batch.
	resumedAt   time.Duration
	recoveredIn time.Duration

	// Loaders shard delivery across per-GPU consumer queues; next drains
	// them round-robin from turn until each has reported end-of-data.
	turn      int
	done      []bool
	remaining int

	// released: the first Close has frozen the session's storage
	// attribution and left the caches, whose tenant slot may be reused.
	// The kernel's, like the caches.
	released bool
	// usageMu guards stats, the snapshot Stats reads from any goroutine
	// without entering the kernel. The kernel publishes it when the stream
	// is claimed and at every batch, whenever quotas rebalance, in
	// Cluster.Stats, and in Close. disk, the session's attributed disk
	// bytes for its Report, is published with it.
	usageMu sync.Mutex
	stats   SessionStats
	disk    int64
}

// Open starts a standalone data-loading session over dataset, configured by
// functional options:
//
//	sess, err := minato.Open(dataset,
//	    minato.WithPipeline(pipeline),
//	    minato.WithBatchSize(64),
//	    minato.WithLoader("minato"),
//	    minato.WithIterations(1000),
//	)
//
// Defaults: the MinatoLoader backend, batch size 32, a one-epoch budget,
// seed 1, an 8-core single-GPU environment (see EnvConfig), and a fresh
// deterministic virtual runtime. The loader's background tasks launch on
// the first Batches call, so an Open session costs nothing until consumed.
//
// Open is a thin wrapper over an implicit single-session Cluster: the
// hardware-shaping options configure that cluster, and closing the session
// closes it. To run many concurrent sessions against one machine, build
// the Cluster explicitly with NewCluster and use Cluster.Open.
func Open(dataset Dataset, opts ...Option) (*Session, error) {
	o, err := build(atOpen, opts)
	if err != nil {
		return nil, err
	}
	cl, err := newCluster(o)
	if err != nil {
		return nil, err
	}
	var sess *Session
	cl.do(func() { // the implicit cluster admits everyone: never queued
		if sess, _, err = cl.open(dataset, o, true, false); err != nil {
			cl.close()
		}
	})
	return sess, err
}

// Batches returns a single-use iterator over the session's batches:
//
//	for batch, err := range sess.Batches(ctx) {
//	    if err != nil { ... }
//	    // consume batch
//	}
//
// The iterator starts the loader on first use, yields exactly the
// configured budget (iterations, or epochs × batches-per-epoch), and then
// ends — the io.EOF that loaders use internally is absorbed into normal
// loop termination. Breaking out early stops the loader and abandons
// pending work; a ctx cancellation is yielded once as the error and ends
// the stream. In every case the loader's background tasks are fully torn
// down before the loop statement completes, so Close never blocks.
//
// Batch lifetime: the yielded batch and its samples are owned by the loop
// body only until it takes the next iteration step — at that point the
// session recycles them for upcoming draws (the zero-allocation steady
// state). Copy anything that must outlive the step, or open the session
// with WithRetainBatches to keep every batch alive. The final batch (and a
// batch the loop breaks on) is never recycled; batches the loader had built
// and the loop never took are released when the stream ends.
func (s *Session) Batches(ctx context.Context) iter.Seq2[*Batch, error] { return s.pump(ctx) }

// The five methods below make a Session its stream's source.

func (s *Session) ready() error {
	if s.cl.closed {
		return ErrClusterClosed
	}
	return nil
}

func (s *Session) start(ctx context.Context) error {
	if err := s.ld.Start(ctx); err != nil {
		return err
	}
	if !s.served {
		s.cst = trainer.StartChaos(&s.env, s.script)
	}
	s.done = make([]bool, len(s.env.GPUs))
	s.remaining = len(s.done)
	return nil
}

func (s *Session) next(ctx context.Context) (*Batch, error) {
	for s.remaining > 0 {
		g := s.turn
		s.turn = (g + 1) % len(s.done)
		if s.done[g] {
			continue
		}
		// Preemption gate: park here while a chaos script holds the
		// session paused; a terminal preemption ends the stream with
		// ErrPreempted (checkpoint and Resume to continue warm).
		if err := s.cst.Gate(ctx); err != nil {
			return nil, err
		}
		b, err := s.ld.Next(ctx, g)
		if errors.Is(err, io.EOF) {
			s.done[g] = true
			s.remaining--
			continue
		}
		if err != nil {
			return nil, err
		}
		now := s.rt.Now()
		s.cst.NoteStep(g, now)
		if s.resumedAt > 0 && s.recoveredIn == 0 {
			// First batch of a checkpoint-restored session: the
			// measured recovery time of the resume.
			s.recoveredIn = now - s.resumedAt
		}
		return b, nil
	}
	return nil, io.EOF
}

// stop halts the chaos replay and the loader, waits for the session's
// background tasks, and releases the backlog: an early-stopped loader leaves
// constructed batches buffered in its delivery queues (closed queues still
// serve their backlog), and pooled samples are never leaked.
func (s *Session) stop() {
	s.cst.Stop()
	s.ld.Stop()
	_ = s.env.WG.Wait(context.Background())
	for g, done := range s.done {
		if done {
			continue
		}
		for {
			b, err := s.ld.Next(context.Background(), g)
			if err != nil {
				break
			}
			b.Release()
		}
	}
}

// publish refreshes the session's slice of the shared caches and disk, unless
// it has left them, and copies it out for Stats with the stream's state and
// counters and the worker quota; on the session's kernel.
func (s *Session) publish() {
	s.usageMu.Lock()
	st := &s.stats
	if !s.released {
		st.Cache, st.MatCache = s.cl.cache.TenantStats(s.cacheTenant), s.cl.mat.TenantStats(s.cacheTenant)
		s.disk = s.env.Store.DiskBytes
	}
	st.WorkerQuota = s.share.WorkerQuota()
	st.State = sessionStateString(s.state)
	st.Batches, st.Samples, st.Bytes = s.batches, s.samples, s.bytes
	s.usageMu.Unlock()
}

// Loader exposes the underlying loader for diagnostics; MinatoLoader
// embedders can assert it to *minato.Loader for Timeout, Workers, etc.
func (s *Session) Loader() DataLoader { return s.ld }

// Runtime returns the runtime the session runs on.
func (s *Session) Runtime() *Runtime { return s.rt }

// Stats returns a live snapshot of the session: delivered batches, samples
// and bytes so far, its tenancy (priority weight, current worker quota),
// and its attributable slice of the shared caches as of the last delivered
// batch (or the last Cluster.Stats). Safe to call from any goroutine, the
// session's own loop body included, while the session streams: it reads the
// copy the kernel publishes and never enters the kernel.
func (s *Session) Stats() SessionStats {
	s.usageMu.Lock()
	defer s.usageMu.Unlock()
	return s.stats
}

func sessionStateString(st int32) string {
	switch st {
	case sessionNew:
		return "open"
	case sessionConsumed:
		return "streaming"
	default:
		return "closed"
	}
}

// Close finalizes the session and returns its Report: batches, samples,
// and bytes delivered, delivery time (TrainTime), and storage statistics —
// cache hits and disk bytes attributed to this session's own traffic when
// the substrate is shared, not the cluster-wide totals. The
// returned error is the first error the batch stream hit, if any. Close is
// idempotent; loader teardown already happened when the Batches loop
// ended. Closing releases the session's slot (admitting a queued sibling,
// rebalancing worker quotas); cache reclamation is cluster-owned and
// happens when the cluster itself closes, never here, so sibling sessions
// sharing the cache are undisturbed. Close enters the session's kernel to
// leave the caches: call it from a goroutine that is not one of the kernel's
// tasks — after the Batches or StreamAll loop, not inside its body.
func (s *Session) Close() (*Report, error) {
	rep := new(Report)
	var err error
	s.cl.do(func() { err = s.close(rep) })
	return rep, err
}

// close is Close's on-kernel form, which a server's stream task calls
// directly: it fills rep in and returns the stream's error.
func (s *Session) close(rep *Report) error {
	s.state = sessionClosed
	if !s.released {
		// Freeze storage attribution before releasing the tenancy: the
		// cache-tenant slot may be reused by a later session.
		s.publish()
		s.released = true
		s.cl.tenants.Leave(s.cacheTenant)
		s.cl.releaseSession(s)
		if s.ownsCluster {
			s.cl.close()
		}
	}
	*rep = s.report(s.spec.Dataset.Name(), s.name, len(s.env.GPUs))
	rep.CacheStats, rep.MatCacheStats, rep.DiskBytes = s.stats.Cache, s.stats.MatCache, s.disk
	if s.cst != nil {
		// The chaos bookkeeping doubles as the SLO view: step-interval
		// quantiles, preemption stall, and per-fault windows.
		s.cst.Finish(rep)
	}
	if s.resumedAt > 0 {
		// A checkpoint-restored session records its own recovery as a
		// resume fault window, so RecoveryTime() covers restores too.
		rep.Faults = append(rep.Faults, FaultStat{
			Event:     ChaosEvent{At: s.resumedAt, Kind: ChaosResume},
			AppliedAt: s.resumedAt,
			Recovery:  s.recoveredIn,
		})
	}
	return s.err
}

// Train runs a full training session — loader plus simulated GPU
// consumers — for a workload, resolving the loader through the registry.
// A registered workload comes from WorkloadByName, which also fixes its
// seed:
//
//	w, _ := minato.WorkloadByName("speech-3s", 1)
//	rep, err := minato.Train(w,
//	    minato.WithLoader("pytorch"),
//	    minato.WithHardware(minato.ConfigA()),
//	    minato.WithIterations(200),
//	)
//
// Defaults: the MinatoLoader backend, the ConfigA testbed and the
// workload's Table 3 budgets. Like Open, Train is a thin wrapper over an
// implicit single-session cluster; co-running training jobs share one
// machine through NewCluster and Cluster.Train. Given WithNodes or
// WithTopology, Train runs the workload data-parallel across a simulated
// multi-node cluster instead, and the Report's Nodes, Steps, NetworkBytes
// and PerNode describe it (see WithNodes).
func Train(w Workload, opts ...Option) (*Report, error) {
	at := trainEntry(opts)
	o, err := build(at, opts)
	if err != nil {
		return nil, err
	}
	if at == atMultiNode {
		return trainMultiNode(w, o)
	}
	if o.hw == nil {
		hw := ConfigA()
		o.hw = &hw
	}
	cl, err := newCluster(o)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.train(w, o)
}

// TrainWorkload is Train.
//
// Deprecated: call Train. TrainWorkload goes once the benchmark's call
// sites move to Train.
func TrainWorkload(w Workload, opts ...Option) (*Report, error) { return Train(w, opts...) }
