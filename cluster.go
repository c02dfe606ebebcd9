package minato

import (
	"fmt"
	"slices"

	"github.com/minatoloader/minato/internal/cache"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trainer"
)

// clusterShare is a tenant's worker-quota handle in the cluster's fair
// arbitration.
type clusterShare = loader.Share

// AdmissionPolicy decides what Cluster.Open and Cluster.Train do when the
// cluster already hosts WithMaxSessions sessions.
type AdmissionPolicy int

const (
	// AdmitReject fails saturated opens immediately with
	// ErrClusterSaturated (the default).
	AdmitReject AdmissionPolicy = iota
	// AdmitQueue blocks saturated opens until a session slot frees
	// (approximately FIFO) or the cluster closes (ErrClusterClosed).
	AdmitQueue
)

// WithMaxSessions caps how many sessions the cluster hosts concurrently.
// Zero (the default) means unlimited. What happens to opens beyond the cap
// is decided by WithAdmission. NewCluster.
func WithMaxSessions(n int) Option {
	return Option{"WithMaxSessions", atNewCluster, func(o *options) { o.maxSessions = n }}
}

// WithAdmission sets the policy for opens arriving while the cluster is at
// WithMaxSessions capacity: AdmitReject (default) or AdmitQueue. NewCluster.
func WithAdmission(p AdmissionPolicy) Option {
	return Option{"WithAdmission", atNewCluster, func(o *options) { o.admission = p }}
}

// Cluster is a long-lived, shared machine hosting many concurrent loading
// and training sessions: one runtime, one CPU worker pool, one GPU set, one
// disk, one page cache, and one sample pool, multiplexed across tenants.
//
//	cluster, err := minato.NewCluster(
//	    minato.WithHardware(minato.ConfigA()),
//	    minato.WithMaxSessions(16),
//	    minato.WithAdmission(minato.AdmitQueue),
//	)
//	sess, err := cluster.Open(dataset, minato.WithPriority(2))
//
// Arbitration: preprocessing workers are shared fairly across tenant
// sessions, weighted by WithPriority — quotas rebalance whenever a session
// opens or closes, and each MinatoLoader's adaptive scheduler tracks its
// quota at the next tick. The page cache is shared with per-tenant
// attribution and soft capacity partitioning, so one tenant's working set
// cannot silently evict everyone else's, and each session's Report counts
// its own cache hits. Admission control (WithMaxSessions + WithAdmission)
// bounds the tenant count.
//
// A Cluster is safe for concurrent use. Its tenancy — admission, the session
// set, GPU placement, worker quotas, counters — is state of the cluster's
// kernel, like the caches, and Open, Train, Close and Stats each enter the
// kernel to touch it: call them from any goroutine that is not a task of
// that kernel (not from a Batches or StreamAll body). Sessions stream
// independently. Close marks the cluster closed (new opens fail, queued
// opens release with ErrClusterClosed) and reclaims the shared substrate
// once the last session has closed.
//
// A Cluster multiplexes many tenants over ONE machine. For the opposite
// shape — one training job spread data-parallel across MANY machines
// connected by a simulated interconnect — see WithNodes and Topology.
type Cluster struct {
	rt     *Runtime
	ownsRT bool
	cpu    *device.Device
	gpus   []*gpu.GPU
	disk   *storage.Disk
	cache  *storage.PageCache
	mat    *matcache.Cache // nil without WithMaterializedCache
	// tenants is the one tenant table under both cache tiers: a session
	// joins it once, and its id routes its traffic through both.
	tenants *cache.Tenants
	store   *storage.Store
	pool    *data.Pool
	shares  *loader.FairShare

	maxSessions int
	admission   AdmissionPolicy

	// The rest is the kernel's, like the caches.
	closed        bool
	reclaimed     bool
	active        int
	nextTenant    int
	openedTotal   int64
	rejectedTotal int64
	// waiters are the channels queued AdmitQueue opens wait on, outside the
	// kernel; release closes the oldest.
	waiters []chan struct{}
	// sessions are the open loading sessions, in admission order.
	sessions []*Session
	// servers counts the running servers (Serve): their daemon tasks keep a
	// runtime the cluster owns from draining, so it is reclaimed only once
	// the last one has closed.
	servers int
	// gpuLoad counts sessions placed on each GPU; placement picks the
	// least-loaded devices so tenants spread across the cluster's GPUs
	// instead of stacking on a prefix.
	gpuLoad []int
}

// NewCluster builds a shared testbed for concurrent sessions. Hardware
// options (WithHardware, WithEnv, WithGPUs, WithRuntime) size the shared
// substrate exactly as they would a standalone Open; WithMaxSessions and
// WithAdmission configure tenancy. Defaults: an 8-core single-GPU
// environment on a fresh deterministic virtual runtime, unlimited
// sessions.
func NewCluster(opts ...Option) (*Cluster, error) {
	o, err := build(atNewCluster, opts)
	if err != nil {
		return nil, err
	}
	return newCluster(o)
}

// newCluster builds the substrate the (validated) options describe: an
// explicit cluster's, or the implicit one of a standalone Open or Train.
func newCluster(co *options) (*Cluster, error) {
	rt := co.rt
	ownsRT := rt == nil
	if ownsRT {
		rt = &Runtime{k: simtime.NewVirtual()}
	}
	k := rt.k
	if co.trace != nil {
		var err error
		k.Do(func() { err = k.SetTrace(co.trace) })
		if err != nil {
			return nil, configErr("WithTracing", err.Error())
		}
	}
	c := &Cluster{
		rt: rt, ownsRT: ownsRT,
		maxSessions: co.maxSessions,
		admission:   co.admission,
		pool:        data.NewPool(),
	}
	if co.hw != nil {
		cfg := *co.hw
		if co.gpus > 0 {
			cfg = cfg.WithGPUs(co.gpus)
		}
		tb := hardware.NewTestbed(k, cfg)
		c.cpu, c.gpus, c.disk, c.cache, c.store = tb.CPU, tb.GPUs, tb.Disk, tb.Cache, tb.Store
	} else {
		ec := EnvConfig{}
		if co.env != nil {
			ec = *co.env
		}
		if co.gpus > 0 {
			ec.GPUs = co.gpus
		}
		env, disk, cache := buildEnv(k, ec)
		c.cpu, c.gpus, c.disk, c.cache = env.CPU, env.GPUs, disk, cache
		c.store = env.Store
	}
	c.tenants = c.cache.Tenants()
	if co.matBytes > 0 {
		// The materialized layer shares the machine's memory with the page
		// cache: carve its capacity out explicitly so the two layers never
		// double-count the same simulated bytes. Validate before reserving —
		// ReserveCapacity is a permanent, evicting shrink, and a failed
		// construction must not leave a caller-supplied testbed's page cache
		// mutilated.
		if pageCap := c.cache.Capacity(); co.matBytes > pageCap {
			return nil, configErr("WithMaterializedCache",
				fmt.Sprintf("capacity %d exceeds the page cache's %d", co.matBytes, pageCap))
		}
		c.cache.ReserveCapacity(co.matBytes)
		c.mat = matcache.NewOn(co.matBytes, c.tenants)
	}
	c.shares = loader.NewFairShare(int(c.cpu.Capacity()))
	c.gpuLoad = make([]int, len(c.gpus))
	return c, nil
}

// Runtime returns the runtime shared by every session of the cluster.
func (c *Cluster) Runtime() *Runtime { return c.rt }

// Open starts a data-loading session on the cluster's shared substrate.
// It accepts the session-level options of the standalone Open (pipeline,
// batch size, loader, budget, seed, priority); the hardware-shaping
// options are cluster-owned and return a *ConfigError here. WithGPUs
// selects how many of the cluster's GPUs the session shards delivery
// across (default: all of them).
//
// When the cluster is at WithMaxSessions capacity, Open rejects with
// ErrClusterSaturated or — under AdmitQueue — blocks until a slot frees.
// Queued opens are released with ErrClusterClosed if the cluster closes
// first. Open must be called from ordinary (untracked) goroutines, not
// from inside a virtual-kernel task.
func (c *Cluster) Open(dataset Dataset, opts ...Option) (*Session, error) {
	o, err := build(atClusterOpen, opts)
	if err != nil {
		return nil, err
	}
	var s *Session
	queued(func() (wait chan struct{}) {
		c.do(func() { s, wait, err = c.open(dataset, o, false, false) })
		return wait
	})
	return s, err
}

// queued makes enter, one kernel entry, again each time it comes back with
// the channel of a saturated AdmitQueue cluster, which the kernel closes
// when a slot frees: the opener waits for it here, outside the kernel.
func queued(enter func() chan struct{}) {
	for wait := enter(); wait != nil; wait = enter() {
		<-wait
	}
}

// open is Open's on-kernel form, which a server's dispatch task calls
// directly (served: see Session.served): it wires a session from built
// options. A saturated AdmitQueue cluster wires nothing and returns the
// channel to wait on instead (see queued).
func (c *Cluster) open(dataset Dataset, o *options, ownsCluster, served bool) (*Session, chan struct{}, error) {
	if dataset == nil {
		return nil, nil, configErr("Open", "requires a dataset")
	}
	f, err := o.resolveFactory()
	if err != nil {
		return nil, nil, err
	}
	script, err := o.resolveChaos(singleMachine)
	if err != nil {
		return nil, nil, err
	}
	gpuCount, err := c.sessionGPUs(o.gpus)
	if err != nil {
		return nil, nil, err
	}

	pipeline := o.pipeline
	if pipeline == nil {
		pipeline = NewPipeline("identity")
	}
	batchSize := o.batchSize
	if batchSize == 0 {
		batchSize = 32
	}
	epochs := o.epochs
	if o.iterations == 0 && epochs == 0 {
		epochs = 1
	}
	spec := Spec{
		Dataset:    dataset,
		Pipeline:   pipeline,
		BatchSize:  batchSize,
		Epochs:     epochs,
		Iterations: o.iterations,
		Seed:       o.seed,
		Skip:       o.skip,
	}
	if spec.BatchesPerEpoch() == 0 {
		return nil, nil, configErr("WithBatchSize", fmt.Sprintf("batch size %d exceeds dataset %q size %d",
			batchSize, dataset.Name(), dataset.Len()))
	}

	tenantID, wait, err := c.admit()
	if wait != nil || err != nil {
		return nil, wait, err
	}
	share := c.join(o.weight)
	cacheTenant := c.tenants.Join()
	gpuIdxs := c.acquireGPUs(gpuCount)

	s := &Session{
		cl:          c,
		ownsCluster: ownsCluster,
		served:      served,
		cacheTenant: cacheTenant,
		share:       share,
		gpuIdxs:     gpuIdxs,
		factory:     f,
		spec:        spec,
		script:      script,
	}
	c.sessionEnv(&s.env, gpuIdxs, cacheTenant, share)
	s.ld = f.New(&s.env, spec)
	s.name = f.Name
	if s.name == "" {
		s.name = s.ld.Name()
	}
	s.stats = SessionStats{Tenant: tenantID, Dataset: dataset.Name(), Loader: s.name, Priority: o.weight}
	s.rt, s.src, s.retain = c.rt, s, o.retain
	c.sessions = append(c.sessions, s)
	s.publish()
	return s, nil, nil
}

// Train runs a full training session — loader plus simulated GPU consumers
// — for a workload on the cluster's shared substrate, under the same
// admission control and worker arbitration as Open:
//
//	w, _ := minato.WorkloadByName("speech-3s", 1)
//	rep, err := cluster.Train(w, minato.WithPriority(2))
//
// It blocks until the training run completes and occupies one session slot
// for the duration.
func (c *Cluster) Train(w Workload, opts ...Option) (*Report, error) {
	o, err := build(atClusterTrain, opts)
	if err != nil {
		return nil, err
	}
	return c.train(w, o)
}

// shaped lays the budget options over a workload. With drop-last semantics a
// batch larger than the dataset yields zero batches per epoch, which would
// spin the index source forever instead of terminating; it is refused here,
// as Open refuses it.
func (o *options) shaped(w Workload) (Workload, error) {
	if o.batchSize > 0 {
		w.BatchSize = o.batchSize
	}
	if o.epochs > 0 {
		w = w.WithEpochs(o.epochs)
	}
	if o.iterations > 0 {
		w = w.WithIterations(o.iterations)
	}
	if w.Spec().BatchesPerEpoch() == 0 {
		return w, configErr("WithBatchSize", fmt.Sprintf("batch size %d exceeds dataset %q size %d",
			w.BatchSize, w.Dataset.Name(), w.Dataset.Len()))
	}
	return w, nil
}

// singleMachine is the chaos shape of every session of one machine.
func singleMachine(s ChaosScript) error { return s.Validate(0) }

// train runs one training session from built options: admission, tenancy
// and the run itself on one task of the cluster's kernel.
func (c *Cluster) train(w Workload, o *options) (*Report, error) {
	f, err := o.resolveFactory()
	if err != nil {
		return nil, err
	}
	script, err := o.resolveChaos(singleMachine)
	if err != nil {
		return nil, err
	}
	o.params.Chaos = script
	gpuCount, err := c.sessionGPUs(o.gpus)
	if err != nil {
		return nil, err
	}
	if w, err = o.shaped(w); err != nil {
		return nil, err
	}

	var rep *Report
	queued(func() (wait chan struct{}) {
		c.run(func() {
			if _, wait, err = c.admit(); wait != nil || err != nil {
				return
			}
			share := c.join(o.weight)
			gpuIdxs := c.acquireGPUs(gpuCount)
			cacheTenant := c.tenants.Join()
			env := new(Env)
			c.sessionEnv(env, gpuIdxs, cacheTenant, share)
			rep, err = trainer.RunEnv(env, w, f, o.params)
			c.tenants.Leave(cacheTenant)
			c.releaseGPUs(gpuIdxs)
			c.leave(share)
			c.release()
		})
		return wait
	})
	return rep, err
}

// join and leave enter and leave the fair worker arbitration; every open
// session then publishes its rebalanced quota. On the kernel.
func (c *Cluster) join(weight float64) *clusterShare {
	share := c.shares.Join(weight)
	c.republish()
	return share
}

func (c *Cluster) leave(share *clusterShare) {
	share.Leave()
	c.republish()
}

func (c *Cluster) republish() {
	for _, s := range c.sessions {
		s.publish()
	}
}

// sessionGPUs validates how many of the cluster's GPUs a session may use.
func (c *Cluster) sessionGPUs(requested int) (int, error) {
	if requested == 0 {
		return len(c.gpus), nil
	}
	if requested > len(c.gpus) {
		return 0, configErr("WithGPUs", fmt.Sprintf("session requests %d GPUs but the cluster has %d",
			requested, len(c.gpus)))
	}
	return requested, nil
}

// acquireGPUs places a session on the n least-loaded GPUs (ties broken by
// device index, so placement is deterministic for a deterministic open
// order) and returns the chosen indices. releaseGPUs undoes the placement.
func (c *Cluster) acquireGPUs(n int) []int {
	idxs := make([]int, 0, n)
	taken := make([]bool, len(c.gpuLoad))
	for len(idxs) < n {
		best := -1
		for i, load := range c.gpuLoad {
			if taken[i] {
				continue
			}
			if best < 0 || load < c.gpuLoad[best] {
				best = i
			}
		}
		taken[best] = true
		c.gpuLoad[best]++
		idxs = append(idxs, best)
	}
	return idxs
}

func (c *Cluster) releaseGPUs(idxs []int) {
	for _, i := range idxs {
		c.gpuLoad[i]--
	}
}

// sessionEnv fills env, a session's view of the shared substrate: shared
// runtime, CPU, the placed GPUs, disk, cache (tenant-routed), and pool; a
// private WaitGroup for teardown; the tenant's worker-quota governor.
func (c *Cluster) sessionEnv(env *Env, gpuIdxs []int, cacheTenant int, share *clusterShare) {
	gpus := make([]*gpu.GPU, len(gpuIdxs))
	for i, g := range gpuIdxs {
		gpus[i] = c.gpus[g]
	}
	*env = Env{
		RT:    c.rt.k,
		CPU:   c.cpu,
		GPUs:  gpus,
		Store: c.store.WithTenant(cacheTenant),
		WG:    simtime.NewWaitGroup(c.rt.k),
		Pool:  c.pool,
		Gov:   share,
		Mat:   c.mat,
	}
}

// admit takes one session slot, applying the admission policy, and returns
// the tenant sequence number — or, on a saturated AdmitQueue cluster, the
// channel release closes when a slot frees. On the kernel.
func (c *Cluster) admit() (int, chan struct{}, error) {
	if c.closed {
		return 0, nil, ErrClusterClosed
	}
	if c.maxSessions > 0 && c.active >= c.maxSessions {
		if c.admission == AdmitReject {
			c.rejectedTotal++
			return 0, nil, ErrClusterSaturated
		}
		wait := make(chan struct{})
		c.waiters = append(c.waiters, wait)
		return 0, wait, nil
	}
	c.active++
	c.openedTotal++
	c.nextTenant++
	return c.nextTenant, nil, nil
}

// release frees one session slot, waking the longest-queued opener.
func (c *Cluster) release() {
	c.active--
	if len(c.waiters) > 0 {
		close(c.waiters[0])
		c.waiters = c.waiters[1:]
	}
}

// releaseSession ends a session's tenancy: it leaves the session set, its
// GPUs and the worker arbitration, and frees its slot (the session has left
// the caches itself). On the kernel.
func (c *Cluster) releaseSession(s *Session) {
	if i := slices.Index(c.sessions, s); i >= 0 {
		c.sessions = slices.Delete(c.sessions, i, i+1)
	}
	c.releaseGPUs(s.gpuIdxs)
	c.leave(s.share)
	c.release()
}

// do runs fn on the cluster's kernel, the one entry of an outside call, and
// then the reclaim fn may have made due (see reclaim); run is do for an fn
// that parks, as a task.
func (c *Cluster) do(fn func())  { c.enter(false, fn) }
func (c *Cluster) run(fn func()) { c.enter(true, fn) }

func (c *Cluster) enter(parks bool, fn func()) {
	var drain bool
	body := func() { fn(); drain = c.reclaim() }
	if parks {
		c.rt.k.Run(body)
	} else {
		c.rt.k.Do(body)
	}
	if drain {
		c.rt.k.Drain()
		c.rt.k.Do(c.recycle)
	}
}

// reclaim recycles the shared cache storage once the cluster is closed and
// its last session gone, and reports whether the kernel must be drained
// first: a runtime the cluster owns is, once no server is left on it. Drain
// waits for every task, so only an outside entry (do, run) may call it —
// a server's stream task that closes the last session leaves the reclaim to
// the next one. On the kernel.
func (c *Cluster) reclaim() (drain bool) {
	if !c.closed || c.active > 0 || c.reclaimed || c.ownsRT && c.servers > 0 {
		return false
	}
	c.reclaimed = true
	if c.ownsRT {
		return true
	}
	c.recycle()
	return false
}

func (c *Cluster) recycle() {
	c.cache.Recycle()
	if c.mat != nil {
		c.mat.Recycle()
	}
}

// Close marks the cluster closed: new opens fail with ErrClusterClosed and
// queued opens release with the same error. The shared substrate (kernel
// tasks, cache storage) is reclaimed once the last active session closes —
// immediately, when none is. Close is idempotent and safe to call
// concurrently with session activity.
func (c *Cluster) Close() error {
	c.do(c.close)
	return nil
}

// close is Close's on-kernel form.
func (c *Cluster) close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, wait := range c.waiters {
		close(wait)
	}
	c.waiters = nil
}

// ClusterStats is a live snapshot of a cluster's tenancy and shared
// resources.
type ClusterStats struct {
	// MaxSessions is the configured cap (0 = unlimited); ActiveSessions the
	// current tenant count; QueuedOpens how many AdmitQueue opens are
	// waiting for a slot.
	MaxSessions    int
	ActiveSessions int
	QueuedOpens    int
	// OpenedTotal and RejectedTotal count admissions and AdmitReject
	// refusals over the cluster's lifetime.
	OpenedTotal   int64
	RejectedTotal int64
	// WorkerCapacity is the CPU worker capacity being arbitrated across
	// tenants.
	WorkerCapacity int
	// Cache and Pool snapshot the shared page cache (whole-cache view) and
	// sample pool; MatCache the materialized preprocessed-sample cache
	// (zero when WithMaterializedCache is not enabled).
	Cache    CacheStats
	MatCache CacheStats
	Pool     PoolStats
	// Sessions holds a live SessionStats per open loading session, in
	// tenant (admission) order. Training runs (Cluster.Train) occupy session
	// slots — they are counted in ActiveSessions — but stream through no
	// public Session, so they do not appear here.
	Sessions []SessionStats
}

// SessionStats is a live snapshot of one session — see Session.Stats.
type SessionStats struct {
	// Tenant is the session's admission sequence number (1-based).
	Tenant  int
	Dataset string
	Loader  string
	// Priority is the WithPriority weight; WorkerQuota the current fair
	// share of preprocessing workers it buys.
	Priority    float64
	WorkerQuota int
	// State is "open" (not yet consumed), "streaming", or "closed".
	State string
	// Batches, Samples, Bytes count deliveries so far.
	Batches int64
	Samples int64
	Bytes   int64
	// Cache is the session's attributable slice of the shared page cache;
	// MatCache its slice of the materialized preprocessed-sample cache
	// (zero when WithMaterializedCache is not enabled).
	Cache    CacheStats
	MatCache CacheStats
}

// Stats returns a live snapshot of the cluster: tenancy counters, the
// shared cache and pool, and per-session statistics. Safe to call from any
// goroutine while sessions stream except a task of the cluster's kernel (a
// Batches or StreamAll body): the snapshot is taken there, between two tasks.
func (c *Cluster) Stats() (st ClusterStats) {
	c.rt.k.Do(func() {
		st = ClusterStats{
			MaxSessions:    c.maxSessions,
			ActiveSessions: c.active,
			QueuedOpens:    len(c.waiters),
			OpenedTotal:    c.openedTotal,
			RejectedTotal:  c.rejectedTotal,
			WorkerCapacity: c.shares.Capacity(),
			Pool:           c.pool.Stats(),
			Cache:          c.cache.Stats(),
			MatCache:       c.mat.Stats(),
		}
		for _, s := range c.sessions {
			s.publish()
			st.Sessions = append(st.Sessions, s.Stats())
		}
	})
	return st
}
