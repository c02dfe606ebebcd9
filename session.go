package minato

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trace"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

// sessionOptions accumulates the functional options of Open, Train,
// TrainWorkload, Cluster.Open, and Cluster.Train. Fields left at their zero
// value take the documented defaults.
type sessionOptions struct {
	pipeline    *Pipeline
	batchSize   int
	loaderName  string
	factory     *Factory
	loaderCfg   *Config
	hw          *HardwareConfig
	env         *EnvConfig
	gpus        int
	rt          Runtime
	iterations  int
	epochs      int
	seed        uint64
	params      Params
	retain      bool
	weight      float64
	prioritySet bool
	seedSet     bool
	topo        *Topology
	matBytes    int64
	chaos       *ChaosScript
	chaosName   string
	trace       *trace.Recorder
	// skip fast-forwards a session past its first batches — set only by
	// Resume, never by a public option.
	skip int
}

// Option configures a session: Open and Cluster.Open, or a training run
// (Train, TrainWorkload, Cluster.Train). Options that size hardware
// (WithHardware, WithEnv, WithGPUs, WithRuntime) are SharedOptions — on a
// standalone Open/Train they configure the implicit cluster; on an explicit
// Cluster they belong to NewCluster instead.
type Option interface{ applySession(*sessionOptions) }

// ClusterOption configures a Cluster (NewCluster): the shared testbed, the
// session capacity, and the admission policy.
type ClusterOption interface{ applyCluster(*clusterOptions) }

// SharedOption is accepted by both NewCluster and the standalone
// Open/Train entry points.
type SharedOption interface {
	Option
	ClusterOption
}

type sessionOption func(*sessionOptions)

func (f sessionOption) applySession(o *sessionOptions) { f(o) }

type clusterOption func(*clusterOptions)

func (f clusterOption) applyCluster(o *clusterOptions) { f(o) }

type sharedOption struct {
	session func(*sessionOptions)
	cluster func(*clusterOptions)
}

func (o sharedOption) applySession(s *sessionOptions) { o.session(s) }
func (o sharedOption) applyCluster(c *clusterOptions) { o.cluster(c) }

// WithPipeline sets the preprocessing pipeline samples flow through.
// Open-only (training workloads carry their own pipeline); the default is
// an empty pipeline that delivers samples unchanged.
func WithPipeline(p *Pipeline) Option {
	return sessionOption(func(o *sessionOptions) { o.pipeline = p })
}

// WithBatchSize sets how many samples each delivered batch holds. Open
// defaults to 32; Train defaults to the workload's Table 3 value.
func WithBatchSize(n int) StreamOption {
	return streamOption{
		session: func(o *sessionOptions) { o.batchSize = n },
		dial:    func(o *dialOptions) { o.batchSize = n },
	}
}

// WithLoader selects the data loader backend by registered name
// (RegisterLoader; "pytorch", "pecan", "dali", and "minato" are built in).
// The default is "minato".
func WithLoader(name string) Option {
	return sessionOption(func(o *sessionOptions) { o.loaderName = name })
}

// WithLoaderFactory bypasses the registry and uses the given factory
// directly — for one-off configurations not worth registering.
func WithLoaderFactory(f Factory) Option {
	return sessionOption(func(o *sessionOptions) { o.factory = &f })
}

// WithLoaderConfig runs MinatoLoader with a custom Config instead of the
// paper's defaults. It conflicts with selecting a non-minato loader.
func WithLoaderConfig(cfg Config) Option {
	return sessionOption(func(o *sessionOptions) { o.loaderCfg = &cfg })
}

// WithHardware runs on one of the simulated testbeds (ConfigA, ConfigB, or
// a custom HardwareConfig). As a NewCluster option it sizes the shared
// testbed; on a standalone Open/Train it sizes the implicit cluster.
// Sessions opened on an explicit Cluster cannot carry it — the hardware is
// cluster-owned.
func WithHardware(cfg HardwareConfig) SharedOption {
	return sharedOption{
		session: func(o *sessionOptions) { o.hw = &cfg },
		cluster: func(o *clusterOptions) { o.hw = &cfg },
	}
}

// WithEnv sizes a custom embedder environment (cores, disk, cache) instead
// of a paper testbed. It conflicts with WithHardware and, like it, belongs
// to the cluster level.
func WithEnv(cfg EnvConfig) SharedOption {
	return sharedOption{
		session: func(o *sessionOptions) { o.env = &cfg },
		cluster: func(o *clusterOptions) { o.env = &cfg },
	}
}

// WithGPUs overrides the GPU (consumer) count. As a NewCluster option it
// sizes the shared testbed; on a session opened on an explicit Cluster it
// selects how many of the cluster's GPUs the session's delivery shards
// across (at most the cluster's count).
func WithGPUs(n int) SharedOption {
	return sharedOption{
		session: func(o *sessionOptions) { o.gpus = n },
		cluster: func(o *clusterOptions) { o.gpus = n },
	}
}

// WithRuntime runs on an existing runtime: a virtual kernel shared with
// other clusters or services. Cluster-level; the default is a fresh
// deterministic virtual runtime per cluster.
func WithRuntime(rt Runtime) SharedOption {
	return sharedOption{
		session: func(o *sessionOptions) { o.rt = rt },
		cluster: func(o *clusterOptions) { o.rt = rt },
	}
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
// Like the other substrate options it is cluster-owned: pass it to
// NewCluster (or a standalone Open/Train, which configures the implicit
// cluster); sessions of an explicit cluster cannot carry it.
func WithMaterializedCache(bytes int64) SharedOption {
	return sharedOption{
		session: func(o *sessionOptions) { o.matBytes = bytes },
		cluster: func(o *clusterOptions) { o.matBytes = bytes },
	}
}

// WithIterations bounds the session to n delivered batches, wrapping
// epochs as needed. It takes precedence over WithEpochs.
func WithIterations(n int) StreamOption {
	return streamOption{
		session: func(o *sessionOptions) { o.iterations = n },
		dial:    func(o *dialOptions) { o.iterations = n },
	}
}

// WithEpochs bounds the session to n full passes over the dataset
// (drop-last semantics). The default budget is one epoch.
func WithEpochs(n int) StreamOption {
	return streamOption{
		session: func(o *sessionOptions) { o.epochs = n },
		dial:    func(o *dialOptions) { o.epochs = n },
	}
}

// WithSeed keys every random draw of the session (shuffling, synthetic
// sample properties). Identical seeds reproduce runs exactly. Default 1.
func WithSeed(seed uint64) StreamOption {
	return streamOption{
		session: func(o *sessionOptions) { o.seed = seed; o.seedSet = true },
		dial:    func(o *dialOptions) { o.seed = seed },
	}
}

// WithParams tunes what a training run records (time series, batch
// composition, per-sample traces). Train/TrainWorkload only.
func WithParams(p Params) Option {
	return sessionOption(func(o *sessionOptions) { o.params = p })
}

// WithRetainBatches disables the session's batch recycling: every batch
// yielded by Batches stays valid indefinitely, at the cost of allocating
// fresh samples for every draw. Without it, a yielded batch (and the
// samples inside it) is recycled when the loop takes the next step, so
// callers that keep references across iterations must either copy what
// they need or set this option. Open and Dial.
func WithRetainBatches() StreamOption {
	return streamOption{
		session: func(o *sessionOptions) { o.retain = true },
		dial:    func(o *dialOptions) { o.retain = true },
	}
}

// WithPriority weights the session in the cluster's fair arbitration of
// preprocessing workers: a weight-2 tenant receives twice the worker quota
// of a weight-1 tenant (always at least one worker). The default weight is
// 1. Weights must be positive.
func WithPriority(weight float64) Option {
	return sessionOption(func(o *sessionOptions) { o.weight = weight; o.prioritySet = true })
}

func buildOptions(opts []Option) *sessionOptions {
	o := &sessionOptions{seed: 1, weight: 1}
	for _, opt := range opts {
		opt.applySession(o)
	}
	return o
}

// validate checks option values and conflicts. Every failure is a
// *ConfigError so callers can errors.As on misuse.
func (o *sessionOptions) validate() error {
	if o.batchSize < 0 {
		return configErr("WithBatchSize", fmt.Sprintf("batch size %d < 0", o.batchSize))
	}
	if o.iterations < 0 {
		return configErr("WithIterations", fmt.Sprintf("iteration budget %d < 0", o.iterations))
	}
	if o.epochs < 0 {
		return configErr("WithEpochs", fmt.Sprintf("epoch budget %d < 0", o.epochs))
	}
	if o.gpus < 0 {
		return configErr("WithGPUs", fmt.Sprintf("GPU count %d < 0", o.gpus))
	}
	if o.prioritySet && o.weight <= 0 {
		return configErr("WithPriority", fmt.Sprintf("weight %g must be positive", o.weight))
	}
	if o.matBytes < 0 {
		return configErr("WithMaterializedCache", fmt.Sprintf("capacity %d < 0", o.matBytes))
	}
	if o.hw != nil && o.env != nil {
		return configErr("WithHardware/WithEnv", "mutually exclusive")
	}
	if o.factory != nil && o.loaderName != "" {
		return configErr("WithLoader/WithLoaderFactory", "mutually exclusive")
	}
	if o.loaderCfg != nil && o.loaderName != "" && o.loaderName != "minato" {
		return configErr("WithLoaderConfig",
			fmt.Sprintf("WithLoaderConfig configures the minato loader, but %q is selected", o.loaderName))
	}
	if o.loaderCfg != nil && o.factory != nil {
		return configErr("WithLoaderConfig/WithLoaderFactory", "mutually exclusive")
	}
	return nil
}

// rejectClusterOwned refuses the hardware-shaping options on sessions of an
// explicit cluster, where the substrate is cluster-owned.
func (o *sessionOptions) rejectClusterOwned() error {
	switch {
	case o.hw != nil:
		return configErr("WithHardware", "cluster-owned: size the testbed on NewCluster")
	case o.env != nil:
		return configErr("WithEnv", "cluster-owned: size the environment on NewCluster")
	case o.rt != nil:
		return configErr("WithRuntime", "cluster-owned: the runtime belongs to NewCluster")
	case o.matBytes != 0:
		return configErr("WithMaterializedCache", "cluster-owned: enable the cache on NewCluster")
	case o.trace != nil:
		return configErr("WithTracing", "cluster-owned: attach the sink on NewCluster")
	}
	return o.rejectTopology()
}

// rejectTopology refuses the multi-node options on single-machine entry
// points.
func (o *sessionOptions) rejectTopology() error {
	if o.topo != nil {
		return configErr("WithNodes/WithTopology", "multi-node clusters train through TrainMultiNode")
	}
	return nil
}

// resolveFactory picks the loader factory: an explicit factory first, then
// a custom-configured MinatoLoader, then the registry by name, defaulting
// to "minato".
func (o *sessionOptions) resolveFactory() (Factory, error) {
	if o.factory != nil {
		return *o.factory, nil
	}
	name := o.loaderName
	if name == "" {
		name = "minato"
	}
	if o.loaderCfg != nil {
		return loaders.Minato(*o.loaderCfg), nil
	}
	f, ok := loaders.ByName(name)
	if !ok {
		return Factory{}, configErr("WithLoader", fmt.Sprintf("unknown loader %q (registered: %s)",
			name, strings.Join(loaders.Names(), ", ")))
	}
	return f, nil
}

const (
	sessionNew int32 = iota
	sessionConsumed
	sessionClosed
)

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
	cl          *Cluster
	ownsCluster bool
	tenantID    int
	cacheTenant int
	share       *clusterShare
	gpuIdxs     []int
	weight      float64

	rt      Runtime
	env     *Env
	ld      DataLoader
	name    string
	spec    Spec
	factory Factory
	retain  bool
	script  ChaosScript
	// cst replays the session's chaos script against the Batches stream
	// and keeps the SLO bookkeeping (step-interval histogram, fault
	// windows); created when the stream starts.
	cst *trainer.ChaosState
	// resumedAt marks a session created by Resume; recoveredIn is the time
	// from the resume to its first delivered batch.
	resumedAt   time.Duration
	recoveredIn time.Duration

	// inline makes Batches run its loop on the caller's already-tracked
	// task instead of wrapping a v.Run — set by StreamAll.
	inline atomic.Bool

	state    atomic.Int32
	released atomic.Bool
	err      error
	startAt  atomic.Int64 // time.Duration
	endAt    atomic.Int64 // time.Duration
	batches  atomic.Int64
	samples  atomic.Int64
	bytes    atomic.Int64
	// usage is the session's slice of the shared caches and disk. The caches
	// are the kernel's, so code on the kernel publishes it — the streaming
	// task at every batch, Cluster.Stats, and Close, which freezes it (left)
	// before the cache-tenant slot is released and possibly reused — and
	// Stats reads the copy from any goroutine without entering the kernel.
	usageMu sync.Mutex
	usage   sessionUsage
	left    bool // the kernel's, like the caches
}

// sessionUsage is a session's storage attribution.
type sessionUsage struct {
	cache CacheStats
	mat   MatCacheStats
	disk  int64
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
	o := buildOptions(opts)
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := o.rejectTopology(); err != nil {
		return nil, err
	}
	cl, err := newCluster(&clusterOptions{hw: o.hw, env: o.env, gpus: o.gpus, rt: o.rt,
		matBytes: o.matBytes, trace: o.trace})
	if err != nil {
		return nil, err
	}
	o.hw, o.env, o.rt, o.gpus, o.matBytes, o.trace = nil, nil, nil, 0, 0, nil
	sess, err := cl.open(dataset, o, true, false)
	if err != nil {
		_ = cl.Close()
		return nil, err
	}
	return sess, nil
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
// batch the loop breaks on) is never recycled.
func (s *Session) Batches(ctx context.Context) iter.Seq2[*Batch, error] {
	return func(yield func(*Batch, error) bool) {
		switch {
		case s.state.Load() == sessionClosed:
			yield(nil, ErrSessionClosed)
			return
		case s.cl.isClosed():
			yield(nil, ErrClusterClosed)
			return
		case !s.state.CompareAndSwap(sessionNew, sessionConsumed):
			yield(nil, ErrSessionConsumed)
			return
		}
		runOnKernel(s, func() {
			if err := ctx.Err(); err != nil {
				s.err = err
				yield(nil, err)
				return
			}
			now := int64(s.rt.Now())
			s.startAt.Store(now)
			s.endAt.Store(now)
			if err := s.ld.Start(ctx); err != nil {
				s.err = err
				yield(nil, err)
				return
			}
			s.cst = trainer.StartChaos(s.rt, s.env, s.cl.disk, s.env.WG, s.script, len(s.env.GPUs))
			defer s.teardown()

			// Loaders shard delivery across per-GPU consumer queues;
			// drain them round-robin until each reports end-of-data.
			n := len(s.env.GPUs)
			done := make([]bool, n)
			remaining := n
			var prev *Batch
			var prevGen uint32
			for g := 0; remaining > 0; g = (g + 1) % n {
				if done[g] {
					continue
				}
				// Preemption gate: park here while a chaos script holds the
				// session paused; a terminal preemption ends the stream with
				// ErrPreempted (checkpoint and Resume to continue warm).
				if err := s.cst.Gate(ctx); err != nil {
					s.err = err
					yield(nil, err)
					return
				}
				b, err := s.ld.Next(ctx, g)
				if errors.Is(err, io.EOF) {
					done[g] = true
					remaining--
					continue
				}
				if err != nil {
					s.err = err
					yield(nil, err)
					return
				}
				s.batches.Add(1)
				s.samples.Add(int64(b.Size()))
				s.bytes.Add(b.Bytes())
				now := s.rt.Now()
				s.endAt.Store(int64(now))
				s.cst.NoteStep(g, now)
				s.publish()
				if s.resumedAt > 0 && s.recoveredIn == 0 {
					// First batch of a checkpoint-restored session: the
					// measured recovery time of the resume.
					s.recoveredIn = now - s.resumedAt
				}
				// The previously yielded batch is out of its validity window
				// once the loop asks for the next one: recycle it — unless
				// the loop body already released it itself (the generation
				// guard leaves a batch we no longer own alone).
				if prev != nil && !s.retain {
					prev.ReleaseIfOwned(prevGen)
				}
				prev, prevGen = b, b.Generation()
				if !yield(b, nil) {
					return
				}
			}
		})
	}
}

// runOnKernel executes fn as a tracked task of the session's kernel
// (simtime.Virtual.Run) — the only place code that parks may run — and blocks
// until it returns, or is a plain call when StreamAll already put the caller
// on a task. Code that touches kernel-owned state (caches, disk, fabric,
// loaders) without parking uses Runtime.Do instead; neither is for callers
// that are themselves tasks.
func runOnKernel(s streamer, fn func()) {
	rt, inline := s.kernel()
	if inline.Load() {
		fn()
		return
	}
	rt.Run(fn)
}

// teardown stops the chaos replay and the loader, then waits for the
// session's background tasks. Called from inside the kernel task driving
// Batches.
func (s *Session) teardown() {
	s.cst.Stop()
	s.ld.Stop()
	_ = s.env.WG.Wait(context.Background())
}

// Loader exposes the underlying loader for diagnostics; MinatoLoader
// embedders can assert it to *minato.Loader for Timeout, Workers, etc.
func (s *Session) Loader() DataLoader { return s.ld }

// Runtime returns the runtime the session runs on.
func (s *Session) Runtime() Runtime { return s.rt }

// Cluster returns the cluster hosting the session (the implicit one for
// standalone Open).
func (s *Session) Cluster() *Cluster { return s.cl }

// Stats returns a live snapshot of the session: delivered batches, samples
// and bytes so far, its tenancy (priority weight, current worker quota),
// and its attributable slice of the shared caches as of the last delivered
// batch (or the last Cluster.Stats). Safe to call from any goroutine, the
// session's own loop body included, while the session streams.
func (s *Session) Stats() SessionStats {
	st := SessionStats{
		Tenant:   s.tenantID,
		Dataset:  s.spec.Dataset.Name(),
		Loader:   s.name,
		Priority: s.weight,
		State:    sessionStateString(s.state.Load()),
		Batches:  s.batches.Load(),
		Samples:  s.samples.Load(),
		Bytes:    s.bytes.Load(),
	}
	if s.share != nil {
		st.WorkerQuota = s.share.WorkerQuota()
	}
	u := s.published()
	st.Cache, st.MatCache = u.cache, u.mat
	return st
}

func (s *Session) published() sessionUsage {
	s.usageMu.Lock()
	defer s.usageMu.Unlock()
	return s.usage
}

// publish refreshes usage from the shared caches, unless the session has left
// them; on the session's kernel.
func (s *Session) publish() {
	if s.left {
		return
	}
	u := s.cl.tenantUsage(s.cacheTenant)
	s.usageMu.Lock()
	s.usage = u
	s.usageMu.Unlock()
}

// leave freezes the session's storage attribution and takes it out of the
// shared caches; on the session's kernel.
func (s *Session) leave() {
	s.publish()
	s.left = true
	s.cl.leaveTenant(s.cacheTenant)
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
func (s *Session) Close() (*Report, error) { return s.close(false) }

// close is Close; onTask says the caller is a task of the session's kernel (a
// server closing a stream) and leaves the caches right there, with no entry.
func (s *Session) close(onTask bool) (*Report, error) {
	s.state.Store(sessionClosed)
	rep := &Report{
		Workload:     s.spec.Dataset.Name(),
		Loader:       s.name,
		GPUs:         len(s.env.GPUs),
		TrainTime:    time.Duration(s.endAt.Load() - s.startAt.Load()),
		Batches:      s.batches.Load(),
		Samples:      s.samples.Load(),
		TrainedBytes: s.bytes.Load(),
	}
	if s.released.CompareAndSwap(false, true) {
		// Freeze storage attribution before releasing the tenancy: the
		// cache-tenant slot may be reused by a later session.
		if onTask {
			s.leave()
		} else {
			s.rt.Do(s.leave)
		}
		s.cl.releaseSession(s, onTask)
	}
	u := s.published()
	rep.CacheStats, rep.MatCacheStats, rep.DiskBytes = u.cache, u.mat, u.disk
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
	if s.ownsCluster {
		_ = s.cl.Close()
	}
	return rep, s.err
}

// Train runs a full training session — loader plus simulated GPU
// consumers — for a registered workload, resolving both the workload and
// the loader through the registries:
//
//	rep, err := minato.Train("speech-3s",
//	    minato.WithLoader("pytorch"),
//	    minato.WithHardware(minato.ConfigA()),
//	    minato.WithIterations(200),
//	)
//
// Defaults: the MinatoLoader backend, the ConfigA testbed, the workload's
// Table 3 budgets, and seed 1. Like Open, Train is a thin wrapper over an
// implicit single-session cluster; co-running training jobs share one
// machine through NewCluster and Cluster.Train.
func Train(workloadName string, opts ...Option) (*Report, error) {
	o := buildOptions(opts)
	w, ok := workload.ByName(workloadName, o.seed)
	if !ok {
		return nil, configErr("Train", fmt.Sprintf("unknown workload %q (registered: %s)",
			workloadName, strings.Join(workload.Names(), ", ")))
	}
	return trainOpts(w, o)
}

// TrainWorkload is Train for a workload value built directly (custom or
// parameterized workloads that are not registered by name).
func TrainWorkload(w Workload, opts ...Option) (*Report, error) {
	return trainOpts(w, buildOptions(opts))
}

func trainOpts(w Workload, o *sessionOptions) (*Report, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := o.rejectTopology(); err != nil {
		return nil, err
	}
	if o.env != nil {
		return nil, configErr("WithEnv", "applies to Open; training sessions use WithHardware")
	}
	if o.rt != nil {
		return nil, configErr("WithRuntime", "training sessions own their runtime; WithRuntime applies to Open")
	}
	hw := ConfigA()
	if o.hw != nil {
		hw = *o.hw
	}
	cl, err := newCluster(&clusterOptions{hw: &hw, gpus: o.gpus, matBytes: o.matBytes, trace: o.trace})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	o.hw, o.gpus, o.matBytes, o.trace = nil, 0, 0, nil
	return cl.train(w, o)
}
